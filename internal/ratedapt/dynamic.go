package ratedapt

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/channel"
	"repro/internal/prng"
	"repro/internal/scratch"
)

// RosterTag is one tag of a dynamic-population transfer: the scenario
// engine's unit of churn. The full roster is fixed up front (it indexes
// the channel process's taps), but tags enter and leave the round at
// their scheduled slots.
type RosterTag struct {
	// Seed is the tag's data-phase temporary id — what re-identification
	// assigned it when it joined the round.
	Seed uint64
	// Message is the tag's payload. All roster messages must have equal
	// length (§6 footnote 5).
	Message bits.Vector
	// ArriveSlot is the 1-based slot from which the tag is present; 0 or
	// 1 means present from the start. Roster tags must be ordered by
	// nondecreasing ArriveSlot — the decode session grows columns in
	// roster order.
	ArriveSlot int
	// DepartSlot, when positive, is the slot from which the tag's radio
	// is gone (it left the reader's field). The reader learns of the
	// departure (the same upper layer that schedules the inventory
	// round reports it) and retires the tag: its current estimate is
	// frozen out of the decode fan-out, and its message — unless
	// already verified — counts as lost. The departing tags must be a
	// roster prefix in nondecreasing DepartSlot order (first in, first
	// out), the tags that stay forming the suffix.
	DepartSlot int
}

// Arrive returns the tag's effective arrival slot: ArriveSlot clamped
// up to 1 ("present from the start"). Presence accounting everywhere —
// the transfer engine and the scenario layer's re-identification hook —
// goes through this one definition.
func (r *RosterTag) Arrive() int {
	if r.ArriveSlot < 1 {
		return 1
	}
	return r.ArriveSlot
}

// RosterWalk is a validated roster's per-slot event cursor: the one
// place the data phase turns presence windows into SlotEvents. runRound
// drives a Stream with it in process, and the wire replay client drives
// it to build its slot frames, so both ends see the same arrivals,
// departures and retaps. Departures retire a roster prefix (validated
// by NewRosterWalk), so the departed tags are always roster[:Departed()]
// and presence is Arrived() − Departed().
type RosterWalk struct {
	roster            []RosterTag
	wins              []int
	arrived, departed int
	ev                SlotEvents
}

// NewRosterWalk validates roster and opens its walk. The roster must
// hold equal-length messages, be ordered by arrival, have at least one
// tag present at slot 1, and depart each tag after it arrives, the
// departing tags forming a prefix in nondecreasing DepartSlot order.
// wins, when non-nil, are the per-tag windows arrivals carry
// (WindowPolicy.Resolve).
func NewRosterWalk(roster []RosterTag, wins []int) (RosterWalk, error) {
	k0 := 0
	stays, prevDep := false, 0 // saw a tag that never departs; last departure
	for i := range roster {
		rt := &roster[i]
		if len(rt.Message) != len(roster[0].Message) {
			return RosterWalk{}, fmt.Errorf("ratedapt: message %d has %d bits, others %d — equal lengths required (§6 footnote 5)",
				i, len(rt.Message), len(roster[0].Message))
		}
		if i > 0 && rt.Arrive() < roster[i-1].Arrive() {
			return RosterWalk{}, fmt.Errorf("ratedapt: roster not ordered by arrival (tag %d arrives at %d after tag %d at %d)",
				i, rt.Arrive(), i-1, roster[i-1].Arrive())
		}
		if rt.DepartSlot > 0 && rt.DepartSlot <= rt.Arrive() {
			return RosterWalk{}, fmt.Errorf("ratedapt: roster tag %d departs at slot %d but only arrives at %d", i, rt.DepartSlot, rt.Arrive())
		}
		// Departures retire a roster prefix in nondecreasing DepartSlot
		// order, the never-departing tags forming the suffix: the shape
		// every scenario roster has (FIFO retirement, constant dwell),
		// and the one the departure cursor walks.
		if d := rt.DepartSlot; d == 0 {
			stays = true
		} else if stays || d < prevDep {
			return RosterWalk{}, fmt.Errorf("ratedapt: roster departures not a prefix in slot order (tag %d departs at slot %d)", i, d)
		} else {
			prevDep = d
		}
		if rt.Arrive() == 1 {
			k0++
		}
	}
	if k0 == 0 {
		return RosterWalk{}, fmt.Errorf("ratedapt: at least one roster tag must be present at slot 1")
	}
	return RosterWalk{roster: roster, wins: wins, arrived: k0}, nil
}

// Arrived returns how many roster tags have joined so far. Before the
// first Next it is the slot-1 population the stream opens with, which
// Next never reports as arrivals.
func (w *RosterWalk) Arrived() int { return w.arrived }

// Departed returns how many roster tags have departed so far.
func (w *RosterWalk) Departed() int { return w.departed }

// Next returns the given slot's events: the tags arriving at it, with
// their taps from proc, each departure once at the slot it fires, and,
// when proc drifts, the slot's taps for every joined tag. Slots must be
// walked in order from 1. The events alias the walk's buffers and
// proc's model, valid until the next call.
func (w *RosterWalk) Next(slot int, proc channel.Process) SlotEvents {
	ev := &w.ev
	ev.Arrivals = ev.Arrivals[:0]
	ev.Departs = ev.Departs[:0]
	ev.Retap = nil
	if w.arrived < len(w.roster) && w.roster[w.arrived].Arrive() <= slot {
		m := proc.ModelAt(slot)
		for w.arrived < len(w.roster) && w.roster[w.arrived].Arrive() <= slot {
			a := StreamArrival{Seed: w.roster[w.arrived].Seed, Tap: m.Taps[w.arrived]}
			if w.wins != nil {
				a.Window = w.wins[w.arrived]
			}
			ev.Arrivals = append(ev.Arrivals, a)
			w.arrived++
		}
	}
	for w.departed < w.arrived && w.roster[w.departed].DepartSlot > 0 && slot >= w.roster[w.departed].DepartSlot {
		ev.Departs = append(ev.Departs, w.departed)
		w.departed++
	}
	if !proc.Static() {
		ev.Retap = proc.ModelAt(slot).Taps[:w.arrived]
	}
	return *ev
}

// DynamicResult is a Result plus population accounting. Per-tag slices
// are in roster order.
type DynamicResult struct {
	Result
	// Retired flags tags that departed before their message verified.
	Retired []bool
	// ReidentBitSlots accumulates the uplink bit-slot cost that
	// Config.OnArrival charged for mid-round re-identification bursts.
	ReidentBitSlots int
}

// TransferDynamic runs the rateless data phase over a time-varying
// channel and a dynamic tag population: the scenario engine's transfer
// primitive. air synthesizes the received symbols from the taps in
// effect at each slot; decoder supplies the taps the reader decodes
// with (pass the same Process for the genie-aided condition the sim
// package's experiments use). Both processes cover the full roster,
// column i = roster tag i.
//
// Arrivals grow the decode session mid-round (bp.Session.Grow): locked
// tags stay locked, absorbed collisions are kept, and the newcomer
// joins the code from its arrival slot on. Departures retire tags from
// the flip fan-out without restarting the round. Channel drift is
// folded into the cached decoder state incrementally
// (bp.Session.RetapTags), a departed tag's channel stops evolving once
// the stream finds it quiescent (Stream.NewlyQuiescent,
// channel.Process.Freeze), and under a WindowPolicy collision slots
// older than the channel's coherence time are retired from the graph
// (bp.Session.Retire) with the margin gates re-calibrated for the
// drift that remains — the fast-mobility regime ρ ≲ 0.99 per slot is
// decodable only this way.
//
// With a static process and an event-free roster, TransferDynamic is
// byte-identical to Transfer — both run the same slot loop (runRound),
// so the scenario engine's static workloads reproduce the classic
// experiments exactly.
//
// cfg.Seeds must be empty (seeds ride on the roster); RefineChannel,
// SilenceDecoded and DiesAtSlot are not supported on this path
// (departures subsume radio death, and decision-directed refinement
// of a drifting genie channel is a contradiction).
func TransferDynamic(cfg Config, roster []RosterTag, air, decoder channel.Process, noiseSrc, decodeSrc *prng.Source) (*DynamicResult, error) {
	if len(roster) == 0 {
		return &DynamicResult{}, nil
	}
	if len(cfg.Seeds) != 0 {
		return nil, fmt.Errorf("ratedapt: TransferDynamic takes seeds from the roster; Config.Seeds must be empty")
	}
	if cfg.RefineChannel || cfg.SilenceDecoded || cfg.DiesAtSlot != nil {
		return nil, fmt.Errorf("ratedapt: RefineChannel/SilenceDecoded/DiesAtSlot are not supported by TransferDynamic")
	}
	if air.K() != len(roster) || decoder.K() != len(roster) {
		return nil, fmt.Errorf("ratedapt: air covers %d tags, decoder %d, roster has %d", air.K(), decoder.K(), len(roster))
	}
	return runRound(cfg, roster, decoder, decodeSrc, processAir(air, noiseSrc, cfg.Scratch))
}

// airFunc synthesizes one collision slot: the received symbol per bit
// position when the joined tags flagged in active (join order = roster
// order) transmit; cols lists the same tags, ascending. The returned
// slice is reused across slots.
type airFunc func(slot int, active []bool, cols []int) []complex128

// processAir is the symbol-level air over a channel process: sparseAir
// against the taps in effect at each slot, staged once per round from
// the roster's frames. Only the colliders' taps are read, so only their
// powers are refreshed, every slot.
func processAir(proc channel.Process, noise *prng.Source, sc *scratch.Scratch) func(frames []bits.Vector) airFunc {
	return func(frames []bits.Vector) airFunc {
		obs := sc.Complex(len(frames[0]))
		tagPow := sc.Float(len(frames))
		return func(slot int, _ []bool, cols []int) []complex128 {
			m := proc.ModelAt(slot)
			for _, i := range cols {
				h := m.Taps[i]
				tagPow[i] = real(h)*real(h) + imag(h)*imag(h)
			}
			sparseAir(m, frames, cols, obs, tagPow, noise)
			return obs
		}
	}
}

// runRound is the data phase's one slot loop, shared by every
// in-process transfer: roster events, Stream.Advance, the air, then
// Stream.Ingest, until every roster tag is resolved or the slot budget
// is spent. newAir stages the air from the roster's frames before the
// stream opens. The static-only Config features ride the same loop:
// SilenceDecoded is a row rule inside the stream (ACK cost charged here
// per accepted tag), RefineChannel a stream-side refit, and DiesAtSlot
// an air-side mask — a dead tag's radio is silent while the reader's D
// still schedules it, exactly as when a real tag browns out (§6d).
func runRound(cfg Config, roster []RosterTag, decoder channel.Process, decodeSrc *prng.Source,
	newAir func(frames []bits.Vector) airFunc) (*DynamicResult, error) {

	kTot := len(roster)
	maxSlots := cfg.MaxSlots
	if maxSlots <= 0 {
		maxSlots = 40 * kTot
	}
	// Coherence window: Auto resolves against the decoder process's
	// own coherence time — a fast Gauss–Markov roster gets a short
	// window, block fading gets the block, a static process none, and
	// slow drift the round never outgrows (e.g. ρ ≥ 0.999 at this slot
	// budget) clamps to none, so the classic decoder — optimal inside
	// the coherence time — runs untouched. A PerTag policy instead
	// resolves one window per roster tag from that tag's own coherence
	// time: parked tags keep their whole history while movers forget on
	// their own clocks (bp.Session.RetireTag).
	win, wins, confirmWin := cfg.Window.Resolve(decoder, maxSlots, kTot)
	walk, err := NewRosterWalk(roster, wins)
	if err != nil {
		return nil, err
	}
	k0 := walk.Arrived()
	msgLen := len(roster[0].Message)
	frames := make([]bits.Vector, kTot)
	for i := range roster {
		frames[i] = bits.Message{Payload: roster[i].Message, Kind: cfg.CRC}.Frame()
	}

	// The air stays outside the stream: the decode core only ever sees
	// observations, exactly like a wire-fed daemon session.
	sc := cfg.Scratch
	mark := sc.Mark()
	defer sc.Release(mark)
	air := newAir(frames)

	seeds := make([]uint64, k0)
	for i := range seeds {
		seeds[i] = roster[i].Seed
	}
	var winTag0 []int
	if wins != nil {
		winTag0 = wins[:k0]
	}
	dm := decoder.ModelAt(1)
	st, err := OpenStream(StreamConfig{
		SessionSalt:     cfg.SessionSalt,
		CRC:             cfg.CRC,
		Density:         cfg.Density,
		Restarts:        cfg.Restarts,
		MarginThreshold: cfg.MarginThreshold,
		MessageBits:     msgLen,
		MaxSlots:        maxSlots,
		WindowSlots:     win,
		WindowTag:       winTag0,
		ConfirmWindow:   confirmWin,
		Seeds:           seeds,
		Taps:            dm.Taps[:k0],
		RosterCap:       kTot,
		DecodeSrc:       decodeSrc,
		Scratch:         sc,
		Session:         cfg.Session,
		silenceDecoded:  cfg.SilenceDecoded,
		refineChannel:   cfg.RefineChannel,
	})
	if err != nil {
		return nil, err
	}
	defer st.Close()

	res := &DynamicResult{
		Result: Result{
			Frames:        make([]bits.Vector, kTot),
			Verified:      make([]bool, kTot),
			DecodedAtSlot: make([]int, kTot),
			Participation: make([]int, kTot),
			// Most transfers finish in a few slots per tag; let the rare
			// straggler grow the slice rather than reserving the whole
			// slot budget every call.
			Progress:    make([]SlotResult, 0, min(maxSlots, 4*kTot+16)),
			WindowSlots: win,
		},
		Retired: make([]bool, kTot),
	}
	if wins != nil {
		res.WindowSlotsTag = append([]int(nil), wins...)
		res.RowsRetiredTag = make([]int, kTot)
	}

	var alive []bool
	var aliveCols []int
	if cfg.DiesAtSlot != nil {
		alive = sc.Bool(kTot)
		aliveCols = sc.Int(kTot)
	}
	arriving := make([]int, 0, kTot-k0)
	for slot := 1; slot <= maxSlots && !(walk.Arrived() == kTot && st.Done()); slot++ {
		// --- Population events and channel drift. ---
		// The tags the last slot left quiescent: nothing reads their taps
		// again, so their channel stops evolving.
		for _, i := range st.NewlyQuiescent() {
			decoder.Freeze(i)
		}
		ev := walk.Next(slot, decoder)
		if n := len(ev.Arrivals); n > 0 && cfg.OnArrival != nil {
			arriving = arriving[:0]
			for i := walk.Arrived() - n; i < walk.Arrived(); i++ {
				arriving = append(arriving, i)
			}
			res.ReidentBitSlots += cfg.OnArrival(slot, arriving, walk.Arrived()-walk.Departed())
		}

		// --- Tag side: the row comes back from the stream (the reader's
		// reconstruction of D is the tags' own participation rule —
		// internal/prng shared state), and the air is synthesized
		// against it. ---
		row, err := st.Advance(ev)
		if err != nil {
			return nil, err
		}
		active, cols := row, st.cols
		if alive != nil {
			active = alive[:len(row)]
			na := 0
			for i, on := range row {
				dies := 0
				if i < len(cfg.DiesAtSlot) {
					dies = cfg.DiesAtSlot[i]
				}
				active[i] = on && (dies <= 0 || slot < dies)
				if active[i] {
					aliveCols[na] = i
					na++
				}
			}
			cols = aliveCols[:na]
		}

		// --- Reader side: append, decode, gates, window slide. ---
		step, err := st.Ingest(air(slot, active, cols))
		if err != nil {
			return nil, err
		}
		res.Progress = append(res.Progress, SlotResult{
			Slot:          slot,
			Colliders:     step.Colliders,
			NewlyDecoded:  step.NewlyAccepted,
			TotalDecoded:  step.TotalAccepted,
			BitsPerSymbol: float64(step.TotalAccepted) / float64(slot),
		})
		res.SlotsUsed = slot
		res.RowsRetired += step.RowsRetired
		if cfg.SilenceDecoded {
			// ACK = 2-bit command code + 16-bit temporary id echo, plus
			// two link turnarounds, per newly verified tag.
			res.AckDownlinkBits += 18 * step.NewlyAccepted
			res.AckTurnarounds += 2 * step.NewlyAccepted
		}
	}

	// The stream's per-tag state covers tags that joined; roster tags
	// that never arrived keep their zero values.
	nJ := st.Joined()
	copy(res.Frames, st.Frames()[:nJ])
	copy(res.Verified, st.Verified()[:nJ])
	copy(res.DecodedAtSlot, st.DecodedAt()[:nJ])
	copy(res.Participation, st.ParticipationCounts()[:nJ])
	copy(res.Retired, st.Retired()[:nJ])
	if wins != nil {
		copy(res.RowsRetiredTag, st.RowsRetiredPerTag()[:nJ])
	}
	if res.SlotsUsed > 0 {
		res.BitsPerSymbol = float64(st.TotalAccepted()) / float64(res.SlotsUsed)
	}
	return res, nil
}
