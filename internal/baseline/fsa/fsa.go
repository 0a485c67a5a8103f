// Package fsa implements the Framed Slotted Aloha identification
// baseline of §10: the EPC Gen-2 anti-collision dialogue with the
// standard's Q-adjustment algorithm.
//
// The reader opens a frame of 2^Q slots with a Query; each unidentified
// tag draws a random slot counter and backscatters its 16-bit temporary
// id (RN16) when its counter reaches zero. Singleton slots earn an ACK
// (identifying the tag); empty slots nudge the floating-point Q down by
// C = 0.3; collisions nudge it up. When round(Qfp) changes the reader
// issues QueryAdjust and everyone redraws.
//
// The "FSA with known K" variant (§10) is the same machine fed Buzz's
// stage-A estimate: it starts at Q = ⌈log₂ K̂⌉ — FSA's throughput peaks
// when slots ≈ tags — and lets tags use temporary ids just long enough
// for a K̂-sized population instead of the full RN16, shortening both the
// uplink replies and the downlink ACK echoes.
package fsa

import (
	"fmt"
	"math"

	"repro/internal/epc"
	"repro/internal/prng"
)

// Config parameterizes an FSA identification run.
type Config struct {
	// InitialQ is the starting Q exponent. Zero means the standard's 4.
	InitialQ int
	// TempIDBits is the temporary id length tags backscatter. Zero
	// means the RN16's 16 bits; the known-K variant passes fewer.
	TempIDBits int
}

func (c *Config) initialQ() int {
	if c.InitialQ > 0 {
		return c.InitialQ
	}
	return epc.InitialQ
}

func (c *Config) tempIDBits() int {
	if c.TempIDBits > 0 {
		return c.TempIDBits
	}
	return epc.RN16Bits
}

// emptySlotBits is the listening time wasted on an empty slot, in
// uplink bit durations (the reader times out quickly).
const emptySlotBits = 2

// maxSlots aborts a run of k tags that stops making progress.
func maxSlots(k int) int {
	return 4096 + 512*k
}

// KnownKConfig returns the §10 "FSA with known K" configuration: initial
// frame sized to the estimate and temporary ids sized to a Buzz-style
// id space of c·a·K̂ ids rather than the full 16-bit RN16.
func KnownKConfig(kHat int) Config {
	if kHat < 1 {
		kHat = 1
	}
	q := int(math.Ceil(math.Log2(float64(kHat))))
	if q < 1 {
		q = 1
	}
	// Buzz's default id space is a·c·K̂ = 4K̂·10·K̂ ids (see identify);
	// the shortened FSA id must cover the same population.
	space := 40 * kHat * kHat
	idBits := int(math.Ceil(math.Log2(float64(space))))
	if idBits < 4 {
		idBits = 4
	}
	if idBits > epc.RN16Bits {
		idBits = epc.RN16Bits
	}
	return Config{InitialQ: q, TempIDBits: idBits}
}

// Result reports an FSA identification run.
type Result struct {
	// Identified is how many tags completed the dialogue.
	Identified int
	// Slots counts frame slots consumed, split by outcome.
	Slots, Empties, Singles, Collisions int
	// Commands counts reader transmissions by type.
	Queries, QueryReps, QueryAdjusts, Acks int
	// Time is the air-time account (the Fig. 14 y-axis).
	Time epc.TimeAccount
	// Aborted reports hitting the maxSlots safety valve (4096 + 512·K
	// slots).
	Aborted bool
}

// Run simulates identifying k tags. src drives the tags' slot draws.
func Run(cfg Config, k int, src *prng.Source) (*Result, error) {
	if k < 0 {
		return nil, fmt.Errorf("fsa: negative tag count %d", k)
	}
	res := &Result{}
	if k == 0 {
		return res, nil
	}

	qfp := float64(cfg.initialQ())
	q := cfg.initialQ()
	idBits := cfg.tempIDBits()
	ackBits := 2 + idBits // command code + echoed id

	// counters[i] is tag i's current slot counter; identified tags are
	// removed by swapping to the tail.
	counters := make([]int, k)
	pending := k

	redrawAll := func() {
		n := 1 << uint(q)
		for i := 0; i < pending; i++ {
			counters[i] = src.IntN(n)
		}
	}

	// Opening Query.
	res.Queries++
	res.Time.AddDownlink(epc.QueryBits)
	res.Time.AddTurnaround(1)
	redrawAll()

	for pending > 0 {
		if res.Slots >= maxSlots(k) {
			res.Aborted = true
			break
		}
		// Who replies this slot?
		replying := 0
		firstReplier := -1
		for i := 0; i < pending; i++ {
			if counters[i] == 0 {
				replying++
				if firstReplier < 0 {
					firstReplier = i
				}
			}
		}
		res.Slots++
		switch {
		case replying == 0:
			res.Empties++
			res.Time.AddUplink(emptySlotBits)
			qfp = math.Max(0, qfp-epc.QAdjustC)
		case replying == 1:
			res.Singles++
			res.Time.AddUplink(float64(idBits))
			res.Time.AddTurnaround(2)
			res.Time.AddDownlink(float64(ackBits))
			res.Acks++
			res.Identified++
			// Remove the identified tag.
			pending--
			counters[firstReplier] = counters[pending]
		default:
			res.Collisions++
			// The colliding replies occupy the slot anyway.
			res.Time.AddUplink(float64(idBits))
			qfp = math.Min(epc.MaxQ, qfp+epc.QAdjustC)
			// Colliding tags re-arbitrate within the current frame.
			n := 1 << uint(q)
			for i := 0; i < pending; i++ {
				if counters[i] == 0 {
					counters[i] = src.IntN(n)
				}
			}
		}
		if pending == 0 {
			break
		}
		// Next command: QueryAdjust when round(Qfp) moved, QueryRep
		// otherwise.
		if nq := int(math.Round(qfp)); nq != q {
			q = nq
			res.QueryAdjusts++
			res.Time.AddDownlink(epc.QueryAdjustBits)
			res.Time.AddTurnaround(1)
			redrawAll()
			continue
		}
		res.QueryReps++
		res.Time.AddDownlink(epc.QueryRepBits)
		res.Time.AddTurnaround(1)
		for i := 0; i < pending; i++ {
			if counters[i] > 0 {
				counters[i]--
			}
		}
	}
	return res, nil
}
