package scenario

// The materializing expansion of an arrival-process workload, kept as
// the test reference the streaming roster resolution (ArrivalStream,
// ResolveRoster) is compared against: it builds the explicit
// population schedule and per-tag mobility eagerly, and
// PresenceWindows' FIFO scan turns the schedule back into windows.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/prng"
)

// slots expands the process into one arrival slot per offered tag,
// nondecreasing, truncated at maxSlots. Randomized processes draw
// arrival j's uniform from prng.Mix3(seed, arrivalSlotSalt, j): the
// draw is addressable even where the schedule itself (Poisson's prefix
// sum of gaps) is sequential.
func (a ArrivalSpec) slots(seed uint64, maxSlots int) []int {
	start := a.StartSlot
	if start < 2 {
		start = 2
	}
	out := make([]int, 0, a.Count)
	switch a.Process {
	case ArrivalPoisson:
		t := 0.0
		for j := 0; j < a.Count; j++ {
			u := prng.Uniform01(prng.Mix3(seed, arrivalSlotSalt, uint64(j)))
			// -log(1-u)/λ: an exponential gap; u < 1 keeps it finite.
			t += -math.Log1p(-u) / a.Rate
			slot := start + int(t)
			if slot > maxSlots {
				break
			}
			out = append(out, slot)
		}
	case ArrivalBurst:
		interval := float64(a.BurstSize) / a.Rate
		for j := 0; j < a.Count; j++ {
			g := j / a.BurstSize
			slot := start + int(float64(g)*interval)
			if slot > maxSlots {
				break
			}
			out = append(out, slot)
		}
	case ArrivalConveyor:
		for j := 0; j < a.Count; j++ {
			slot := start + int(float64(j)/a.Rate)
			if slot > maxSlots {
				break
			}
			out = append(out, slot)
		}
	case ArrivalAisleSweep:
		for j := 0; j < a.Count; j++ {
			u := prng.Uniform01(prng.Mix3(seed, arrivalSlotSalt, uint64(j)))
			slot := start + int((float64(j)+u)/a.Rate)
			if slot > maxSlots {
				break
			}
			out = append(out, slot)
		}
	}
	return out
}

// Materialize expands an arrival-process workload into the equivalent
// explicit spec: Workload.Arrivals becomes a Population schedule
// (arrivals merged per slot, dwell-driven departures appended) and, if
// the block carries a rho band, Channel.PerTagRho is filled for the
// whole roster. Specs without an arrival block pass through unchanged.
// The expansion is a pure function of the spec — same spec, same
// schedule, at any parallelism — and needs defaults applied (MaxSlots).
func (s Spec) Materialize() (Spec, error) {
	a := s.Workload.Arrivals
	if a == nil {
		return s, nil
	}
	if s.Decode.MaxSlots < 1 {
		return Spec{}, fmt.Errorf("scenario: materialize needs defaults applied (max_slots %d)", s.Decode.MaxSlots)
	}
	if len(s.Workload.Population) > 0 {
		return Spec{}, fmt.Errorf("scenario: workload.population and workload.arrivals cannot be combined (the arrival process generates the schedule)")
	}

	arrive := a.slots(s.Seed, s.Decode.MaxSlots)

	// Fold arrivals and dwell-driven departures into per-slot deltas.
	// FIFO departures are exact here: dwell is constant and arrival
	// slots are nondecreasing, so "longest present leaves first" picks
	// precisely the tags whose dwell expired.
	type delta struct{ arrive, depart int }
	deltas := make(map[int]*delta)
	at := func(slot int) *delta {
		d := deltas[slot]
		if d == nil {
			d = &delta{}
			deltas[slot] = d
		}
		return d
	}
	for _, slot := range arrive {
		at(slot).arrive++
	}
	if a.Dwell > 0 {
		if d := 1 + a.Dwell; d <= s.Decode.MaxSlots {
			at(d).depart += s.Workload.K
		}
		for _, slot := range arrive {
			if d := slot + a.Dwell; d <= s.Decode.MaxSlots {
				at(d).depart++
			}
		}
	}
	slots := make([]int, 0, len(deltas))
	for slot := range deltas {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	events := make([]PopulationEvent, 0, len(slots))
	for _, slot := range slots {
		d := deltas[slot]
		events = append(events, PopulationEvent{Slot: slot, Arrive: d.arrive, Depart: d.depart})
	}

	m := s
	m.Workload.Arrivals = nil
	m.Workload.Population = events
	if a.hasRhoBand() {
		total := s.Workload.K + len(arrive)
		rho := make([]float64, total)
		for j := range rho {
			u := prng.Uniform01(prng.Mix3(s.Seed, arrivalRhoSalt, uint64(j)))
			rho[j] = a.RhoLo + (a.RhoHi-a.RhoLo)*u
		}
		ch := m.Channel
		ch.PerTagRho = rho
		ch.Rho = 0
		m.Channel = ch
	}
	return m, nil
}
