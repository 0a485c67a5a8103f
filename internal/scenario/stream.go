// Streaming roster resolution. An ArrivalStream walks an
// arrival-process workload one roster tag at a time, with O(1)
// generator state, so warehouse-scale specs (50k+ offered tags) resolve
// their presence windows in a single O(N) pass. The eager alternative —
// a per-slot delta map, a sorted event schedule and a quadratic FIFO
// departure scan — survives only as the test reference
// (materialize_test.go): TestStreamMatchesMaterialized* pin the stream
// byte-for-byte against it, with the same addressable prng.Mix3 draws
// in the same order, over every example spec.
package scenario

import (
	"fmt"
	"math"

	"repro/internal/channel"
	"repro/internal/prng"
)

// Salt for per-reader spec derivation (SplitForReader): reader r of a
// multi-reader sweep draws its arrival schedule from
// Mix3(spec.Seed, readerSeedSalt, r), so readers see disjoint,
// individually addressable arrival streams.
const readerSeedSalt = 0x7EADE75A

// ArrivalStream generates an arrival-process workload's roster lazily:
// Next returns one presence window per roster tag (the K initial tags
// first, then arrivals in schedule order) until the process is
// exhausted or an arrival lands beyond max_slots. The stream is a pure
// function of the spec — two streams over the same spec emit identical
// sequences — and holds O(1) state regardless of roster size.
type ArrivalStream struct {
	a        ArrivalSpec
	seed     uint64
	maxSlots int
	k0       int // initial population (emitted before arrivals)
	start    int // first slot an arrival may land on

	idx  int     // next roster index to emit
	t    float64 // Poisson prefix sum of exponential gaps
	done bool
}

// ArrivalStream opens a streaming view of the spec's arrival process.
// It requires defaults applied (max_slots set) and an arrivals block.
func (s Spec) ArrivalStream() (*ArrivalStream, error) {
	a := s.Workload.Arrivals
	if a == nil {
		return nil, fmt.Errorf("scenario: spec has no arrival process to stream")
	}
	if s.Decode.MaxSlots < 1 {
		return nil, fmt.Errorf("scenario: arrival stream needs defaults applied (max_slots %d)", s.Decode.MaxSlots)
	}
	if len(s.Workload.Population) > 0 {
		return nil, fmt.Errorf("scenario: workload.population and workload.arrivals cannot be combined (the arrival process generates the schedule)")
	}
	start := a.StartSlot
	if start < 2 {
		start = 2
	}
	return &ArrivalStream{
		a:        *a,
		seed:     s.Seed,
		maxSlots: s.Decode.MaxSlots,
		k0:       s.Workload.K,
		start:    start,
	}, nil
}

// Next returns the next roster tag's presence window, or ok=false once
// the roster is exhausted. Initial tags arrive at slot 1; arrivals land
// on their process schedule, truncated at the first slot beyond
// max_slots (all four processes are nondecreasing in arrival index, so
// truncation is final). Departures follow the constant-dwell rule: a
// tag present from slot t leaves at t+dwell when that falls
// inside the round, and stays to the end otherwise.
func (st *ArrivalStream) Next() (Window, bool) {
	if st.done {
		return Window{}, false
	}
	if st.idx < st.k0 {
		st.idx++
		return Window{ArriveSlot: 1, DepartSlot: st.departFor(1)}, true
	}
	j := st.idx - st.k0
	if j >= st.a.Count {
		st.done = true
		return Window{}, false
	}
	var slot int
	switch st.a.Process {
	case ArrivalPoisson:
		u := prng.Uniform01(prng.Mix3(st.seed, arrivalSlotSalt, uint64(j)))
		// -log(1-u)/λ: an exponential gap; u < 1 keeps it finite.
		st.t += -math.Log1p(-u) / st.a.Rate
		slot = st.start + int(st.t)
	case ArrivalBurst:
		interval := float64(st.a.BurstSize) / st.a.Rate
		slot = st.start + int(float64(j/st.a.BurstSize)*interval)
	case ArrivalConveyor:
		slot = st.start + int(float64(j)/st.a.Rate)
	case ArrivalAisleSweep:
		u := prng.Uniform01(prng.Mix3(st.seed, arrivalSlotSalt, uint64(j)))
		slot = st.start + int((float64(j)+u)/st.a.Rate)
	default:
		st.done = true
		return Window{}, false
	}
	if slot > st.maxSlots {
		st.done = true
		return Window{}, false
	}
	st.idx++
	return Window{ArriveSlot: slot, DepartSlot: st.departFor(slot)}, true
}

// departFor applies the constant-dwell departure rule.
func (st *ArrivalStream) departFor(arrive int) int {
	if st.a.Dwell <= 0 {
		return 0
	}
	if d := arrive + st.a.Dwell; d <= st.maxSlots {
		return d
	}
	return 0
}

// Roster is a fully resolved workload roster: one presence window per
// tag (initial tags first, then arrivals in schedule order) and, when
// the spec draws heterogeneous mobility, one Gauss–Markov ρ per tag.
// Rho is nil when every tag shares the channel section's uniform ρ.
type Roster struct {
	Windows []Window
	Rho     []float64
}

// ResolveRoster resolves the spec's roster: presence windows plus any
// per-tag mobility. Arrival-process workloads stream (one O(N) pass,
// no event schedule, no quadratic FIFO scan — the only path that
// scales to warehouse rosters); explicit workloads reuse
// PresenceWindows and the channel section's per_tag_rho. The result
// depends only on the spec, so callers resolve once and share it
// read-only across trials.
func (s Spec) ResolveRoster() (Roster, error) {
	if a := s.Workload.Arrivals; a != nil {
		st, err := s.ArrivalStream()
		if err != nil {
			return Roster{}, err
		}
		windows := make([]Window, 0, s.Workload.K+a.Count)
		for {
			w, ok := st.Next()
			if !ok {
				break
			}
			windows = append(windows, w)
		}
		var rho []float64
		if a.hasRhoBand() {
			rho = make([]float64, len(windows))
			for i := range rho {
				u := prng.Uniform01(prng.Mix3(s.Seed, arrivalRhoSalt, uint64(i)))
				rho[i] = a.RhoLo + (a.RhoHi-a.RhoLo)*u
			}
		}
		return Roster{Windows: windows, Rho: rho}, nil
	}
	windows, err := s.PresenceWindows()
	if err != nil {
		return Roster{}, err
	}
	var rho []float64
	if len(s.Channel.PerTagRho) > 0 {
		rho = s.Channel.PerTagRho
	}
	return Roster{Windows: windows, Rho: rho}, nil
}

// NewProcessRoster builds the spec's channel process over a resolved
// roster. init is the trial's initial model (one tap per roster tag,
// drawn from the spec's SNR band); seed feeds the process's addressable
// randomness; rho carries the per-tag mobility from ResolveRoster (nil
// for a uniform channel). Static and Gauss–Markov specs start from
// init; block fading redraws from the same SNR band every block.
func (s Spec) NewProcessRoster(init *channel.Model, seed uint64, rho []float64) channel.Process {
	switch s.Channel.Kind {
	case KindBlockFading:
		return channel.NewBlockFading(init.K(), s.Channel.SNRLodB, s.Channel.SNRHidB, s.Channel.BlockLen, s.Channel.AGCNoiseFraction, seed)
	case KindGaussMarkov:
		if len(rho) == 0 {
			rho = []float64{s.Channel.Rho}
		}
		return channel.NewGaussMarkov(init, rho, seed)
	default:
		return channel.NewStatic(init)
	}
}

// SplitForReader derives reader r's share of an n-reader deployment:
// the offered count splits as evenly as possible (the first count%n
// readers take one extra tag), the arrival rate divides by n (the
// aggregate offered load is preserved), and the seed re-keys through
// readerSeedSalt so readers draw disjoint arrival schedules and
// channel realizations. Requires an arrival-process workload.
func (s Spec) SplitForReader(r, n int) Spec {
	out := s
	a := *s.Workload.Arrivals
	share := a.Count / n
	if r < a.Count%n {
		share++
	}
	a.Count = share
	a.Rate = a.Rate / float64(n)
	out.Workload.Arrivals = &a
	out.Seed = prng.Mix3(s.Seed, readerSeedSalt, uint64(r))
	return out
}
