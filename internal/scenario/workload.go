// Arrival-process workloads: the open-ended counterpart of an explicit
// population schedule. An ArrivalSpec describes how tags enter (and
// optionally leave) the reader's field — Poisson dock-door arrivals,
// bursty pallet drops, a metered conveyor, an aisle sweep — and
// ResolveRoster streams it into the per-tag presence windows and
// mobility the dynamic engine runs (stream.go). Every draw is
// addressable: arrival j's randomness is prng.Mix3(spec.Seed, salt, j),
// so the schedule is a pure function of the spec, byte-identical at any
// GOMAXPROCS, and any single arrival can be recomputed without
// generating the prefix before it.
package scenario

import (
	"fmt"
	"math"
)

// Arrival process names accepted in ArrivalSpec.Process.
const (
	// ArrivalPoisson spaces arrivals by i.i.d. exponential gaps with
	// mean 1/Rate — the dock-door model: independent cases carried
	// through the portal.
	ArrivalPoisson = "poisson"
	// ArrivalBurst lands whole groups of BurstSize tags at once —
	// pallets through a dock door — with groups spaced so the long-run
	// rate is still Rate.
	ArrivalBurst = "burst"
	// ArrivalConveyor meters arrivals at exactly Rate per slot — a belt
	// feeding tagged items past the antenna at fixed speed. No
	// randomness in the schedule.
	ArrivalConveyor = "conveyor"
	// ArrivalAisleSweep is a reader moving down an aisle of shelved
	// tags: near-uniform spacing with per-tag jitter (a tag enters the
	// field when the sweep reaches its shelf position, give or take).
	ArrivalAisleSweep = "aisle-sweep"
)

// Salts for the workload's addressable draw streams. Distinct salts
// keep the arrival-time and mobility streams decorrelated even though
// both key off (spec.Seed, j).
const (
	arrivalSlotSalt = 0x5C4ED01E // arrival-time jitter / exponential gaps
	arrivalRhoSalt  = 0x3B9D70AF // per-tag mobility draws
)

// ArrivalSpec is the "workload.arrivals" block: an arrival process the
// engine expands into a concrete population schedule at run time.
type ArrivalSpec struct {
	// Process is one of the Arrival* constants.
	Process string `json:"process"`
	// Rate is the long-run arrival rate in tags per collision slot.
	Rate float64 `json:"rate"`
	// Count is the number of tags the process offers; arrivals whose
	// slot falls beyond decode.max_slots are truncated (they never
	// enter the field and are not counted in the roster).
	Count int `json:"count"`
	// BurstSize groups arrivals for the "burst" process; other
	// processes reject it.
	BurstSize int `json:"burst_size,omitempty"`
	// Dwell, when positive, is how many slots a tag stays in the field
	// before departing (initial tags depart at slot 1+Dwell, an
	// arrival at slot t departs at t+Dwell). 0 means tags never leave.
	Dwell int `json:"dwell,omitempty"`
	// StartSlot is the first slot an arrival may land on; 0 means 2
	// (the earliest a mid-round event can fire).
	StartSlot int `json:"start_slot,omitempty"`
	// RhoLo and RhoHi, when set, draw each roster tag's Gauss–Markov
	// mobility coefficient uniformly from [RhoLo, RhoHi] — the
	// open-ended form of per_tag_rho. Requires channel kind
	// "gauss-markov"; initial tags draw from the same band.
	RhoLo float64 `json:"rho_lo,omitempty"`
	RhoHi float64 `json:"rho_hi,omitempty"`
	// Reident selects how arrival bursts' re-identification cost is
	// charged: "" or "simulate" (default) runs the full identification
	// protocol over the air per burst; "analytic" charges the
	// closed-form expected slot budget (identify.ExpectedSlots) —
	// deterministic, O(1) per burst, and the only affordable mode at
	// warehouse scale, where a single simulated burst over thousands
	// of present tags costs more than the decode round itself.
	Reident string `json:"reident,omitempty"`
}

// Re-identification cost modes accepted in ArrivalSpec.Reident.
const (
	// ReidentSimulate runs the full stage-A/B/C protocol per burst.
	ReidentSimulate = "simulate"
	// ReidentAnalytic charges identify.ExpectedSlots(present) per burst.
	ReidentAnalytic = "analytic"
)

// Validate checks the arrival block's local invariants.
func (a ArrivalSpec) Validate() error {
	switch a.Process {
	case ArrivalPoisson, ArrivalBurst, ArrivalConveyor, ArrivalAisleSweep:
	default:
		return fmt.Errorf("scenario: unknown arrival process %q (want poisson, burst, conveyor or aisle-sweep)", a.Process)
	}
	if !(a.Rate > 0) || math.IsInf(a.Rate, 0) {
		return fmt.Errorf("scenario: arrival rate must be a positive finite number of tags per slot, got %v", a.Rate)
	}
	if a.Count < 1 {
		return fmt.Errorf("scenario: arrivals count must be >= 1, got %d", a.Count)
	}
	if a.Process == ArrivalBurst {
		if a.BurstSize < 1 {
			return fmt.Errorf("scenario: burst arrivals need burst_size >= 1, got %d", a.BurstSize)
		}
	} else if a.BurstSize != 0 {
		return fmt.Errorf("scenario: burst_size %d only applies to process %q (got %q)", a.BurstSize, ArrivalBurst, a.Process)
	}
	if a.Dwell < 0 {
		return fmt.Errorf("scenario: arrivals dwell must be >= 0, got %d", a.Dwell)
	}
	if a.StartSlot < 2 && a.StartSlot != 0 {
		return fmt.Errorf("scenario: arrivals start_slot %d; mid-round arrivals start at slot 2", a.StartSlot)
	}
	if a.RhoLo != 0 || a.RhoHi != 0 {
		if !(a.RhoLo > 0) || a.RhoHi > 1 || a.RhoHi < a.RhoLo {
			return fmt.Errorf("scenario: arrivals rho band [%v, %v] must satisfy 0 < rho_lo <= rho_hi <= 1", a.RhoLo, a.RhoHi)
		}
	}
	switch a.Reident {
	case "", ReidentSimulate, ReidentAnalytic:
	default:
		return fmt.Errorf("scenario: unknown reident mode %q (want %q or %q)", a.Reident, ReidentSimulate, ReidentAnalytic)
	}
	return nil
}

// hasRhoBand reports whether the block draws per-tag mobility.
func (a ArrivalSpec) hasRhoBand() bool { return a.RhoHi != 0 }

// SLOSpec is the "slo" block: the service-level objective a capacity
// sweep (sim.Sweep) searches the maximum sustainable arrival rate
// under. A plain run carries it inertly.
type SLOSpec struct {
	// P99CompletionSlots bounds the 99th-percentile inventory-
	// completion latency in collision slots, measured over every
	// offered tag; an undelivered tag counts as +Inf, so the bound
	// also implies at least 99% delivery.
	P99CompletionSlots int `json:"p99_completion_slots"`
	// MaxWrong bounds verified-but-wrong payloads across all trials
	// (0 = the zero-wrong bar every shipped spec holds).
	MaxWrong int `json:"max_wrong"`
	// MinDeliveredFraction optionally tightens the delivery floor
	// beyond what the p99 bound implies, e.g. 0.999.
	MinDeliveredFraction float64 `json:"min_delivered_fraction,omitempty"`
	// RateLo and RateHi bound the sweep's arrival-rate search in tags
	// per slot. The sweep requires both.
	RateLo float64 `json:"rate_lo,omitempty"`
	RateHi float64 `json:"rate_hi,omitempty"`
	// Probes is the bisection budget after the endpoint checks; 0
	// means 6 (rate resolved to (RateHi-RateLo)/2^6).
	Probes int `json:"probes,omitempty"`
	// Readers, when non-empty, asks the sweep for a capacity frontier
	// across multi-reader deployments: for each entry R the offered
	// load splits over R readers (disjoint arrival streams and seeds
	// via SplitForReader) and the sweep finds the maximum aggregate
	// rate the R-reader system sustains. Entries must be >= 1 and
	// strictly increasing; empty keeps the classic single-reader
	// sweep. Requires an arrival-process workload.
	Readers []int `json:"readers,omitempty"`
}

// Validate checks the SLO block's local invariants.
func (o SLOSpec) Validate() error {
	if o.P99CompletionSlots < 1 {
		return fmt.Errorf("scenario: slo p99_completion_slots must be >= 1, got %d", o.P99CompletionSlots)
	}
	if o.MaxWrong < 0 {
		return fmt.Errorf("scenario: slo max_wrong must be >= 0, got %d", o.MaxWrong)
	}
	if o.MinDeliveredFraction < 0 || o.MinDeliveredFraction > 1 {
		return fmt.Errorf("scenario: slo min_delivered_fraction %v outside [0, 1]", o.MinDeliveredFraction)
	}
	if o.RateLo < 0 || o.RateHi < 0 || (o.RateHi != 0 && o.RateLo >= o.RateHi) {
		return fmt.Errorf("scenario: slo rate band [%v, %v] must satisfy 0 <= rate_lo < rate_hi", o.RateLo, o.RateHi)
	}
	if o.Probes < 0 {
		return fmt.Errorf("scenario: slo probes must be >= 0, got %d", o.Probes)
	}
	prev := 0
	for _, r := range o.Readers {
		if r < 1 {
			return fmt.Errorf("scenario: slo readers entries must be >= 1, got %d", r)
		}
		if r <= prev {
			return fmt.Errorf("scenario: slo readers must be strictly increasing (saw %d after %d)", r, prev)
		}
		prev = r
	}
	return nil
}
