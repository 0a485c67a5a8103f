package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/stats"
)

// TestLatencySamplesUnit pins the per-tag sample semantics on crafted
// inputs: unverified or never-decoded tags contribute +Inf, completion
// is measured from the tag's arrival slot (clamped to 1), and the
// trial's first-payload slot is the minimum verified decode slot.
func TestLatencySamplesUnit(t *testing.T) {
	verified := []bool{true, false, true, true, true}
	decodedAt := []int{12, 9, 0, 7, 20}
	windows := []scenario.Window{
		{ArriveSlot: 1}, // present from the start: completion 12-1+1 = 12
		{ArriveSlot: 1}, // unverified -> +Inf
		{ArriveSlot: 1}, // verified but never decoded (0) -> +Inf
		{ArriveSlot: 5}, // arrival at 5, decode at 7: completion 3
		{ArriveSlot: 0}, // arrive clamps to 1: completion 20
	}
	tl := latencySamples(verified, decodedAt, windows)
	if tl.offered != 5 || tl.delivered != 3 {
		t.Fatalf("offered/delivered = %d/%d, want 5/3", tl.offered, tl.delivered)
	}
	// The completion multiset is {3, 12, 20, +Inf, +Inf}; the sketch is
	// uncompacted at this size, so its summary holds exact order
	// statistics.
	inf := math.Inf(1)
	want := stats.Quantiles{N: 5, Min: 3, P50: 20, P90: inf, P99: inf, Max: inf}
	if got := tl.completion.Summary(); got != want {
		t.Fatalf("completion summary %+v, want %+v", got, want)
	}
	if tl.first != 7 {
		t.Fatalf("first = %v, want 7 (minimum verified decode slot)", tl.first)
	}

	// nil decodedAt (a scheme with no per-tag detail): everything +Inf.
	tl = latencySamples([]bool{true, true}, nil, windows[:2])
	if tl.delivered != 0 || tl.offered != 2 {
		t.Fatalf("nil decodedAt: offered/delivered = %d/%d, want 2/0", tl.offered, tl.delivered)
	}
	if got := tl.completion.Summary().Min; !math.IsInf(got, 1) {
		t.Fatalf("nil decodedAt: min completion = %v, want +Inf", got)
	}
	if !math.IsInf(tl.first, 1) {
		t.Fatalf("nil decodedAt: first = %v, want +Inf", tl.first)
	}
}

// latencyDeterminismSpec is a small arrival-process workload used to
// pin that the latency report is a pure function of the spec.
func latencyDeterminismSpec() scenario.Spec {
	return scenario.Spec{
		Name:   "latency-determinism",
		Trials: 4,
		Seed:   20268,
		Workload: scenario.WorkloadSpec{
			K: 2,
			Arrivals: &scenario.ArrivalSpec{
				Process: scenario.ArrivalPoisson,
				Rate:    0.2,
				Count:   6,
				Dwell:   48,
			},
		},
		Decode: scenario.DecodeSpec{MaxSlots: 400},
	}
}

// TestLatencyReportDeterministic runs the same arrivals workload under
// GOMAXPROCS 1 and 4: the report (and its rendered string) must be
// byte-identical in both, because the samples are flattened in trial
// order, not completion order.
func TestLatencyReportDeterministic(t *testing.T) {
	var reports []*LatencyReport
	for _, procs := range []int{1, 4} {
		restore := setProcs(procs)
		out, err := Run(latencyDeterminismSpec())
		restore()
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if out.Latency == nil {
			t.Fatalf("GOMAXPROCS=%d: no latency report", procs)
		}
		reports = append(reports, out.Latency)
	}
	for i := 1; i < len(reports); i++ {
		if !reflect.DeepEqual(reports[0], reports[i]) {
			t.Fatalf("latency report differs across configurations:\nbase: %+v\nrun %d: %+v", reports[0], i, reports[i])
		}
		if reports[0].String() != reports[i].String() {
			t.Fatalf("rendered report differs:\nbase: %s\nrun %d: %s", reports[0], i, reports[i])
		}
	}
	if reports[0].TagsOffered != 4*(2+6) {
		t.Fatalf("TagsOffered = %d, want %d (roster × trials)", reports[0].TagsOffered, 4*(2+6))
	}
}

// sweepSpec is a fast dock-door-shaped spec with a 3-probe budget.
func sweepSpec() scenario.Spec {
	spec := latencyDeterminismSpec()
	spec.Name = "sweep-determinism"
	spec.Trials = 3
	spec.SLO = &scenario.SLOSpec{
		P99CompletionSlots: 10,
		RateLo:             0.05,
		RateHi:             0.8,
		Probes:             3,
	}
	return spec
}

// TestSweepDeterministic reruns the same sweep and requires the
// reports — struct and rendered text — to match exactly. This is the
// in-process version of the CI byte-identity smoke.
func TestSweepDeterministic(t *testing.T) {
	a, err := Sweep(sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sweep reports differ:\na: %+v\nb: %+v", a, b)
	}
	if a.Render() != b.Render() {
		t.Fatalf("rendered reports differ:\na:\n%s\nb:\n%s", a.Render(), b.Render())
	}
	// Sanity on the search itself: the endpoints are probed first, and
	// a feasible report's max rate is one of the probed rates.
	if len(a.Probes) < 1 {
		t.Fatal("sweep evaluated no probes")
	}
	if a.Probes[0].Rate != 0.05 {
		t.Fatalf("first probe rate = %v, want rate_lo 0.05", a.Probes[0].Rate)
	}
	if a.Feasible {
		found := false
		for _, p := range a.Probes {
			if p.Feasible && p.Rate == a.MaxRate {
				found = true
			}
		}
		if !found {
			t.Fatalf("MaxRate %v is not a feasible probed rate: %+v", a.MaxRate, a.Probes)
		}
		if a.AtMax == nil {
			t.Fatal("feasible report missing AtMax latency detail")
		}
	}
	if !strings.Contains(a.Render(), "capacity report: \"sweep-determinism\"") {
		t.Fatalf("render missing header: %s", a.Render())
	}
}

// TestSweepMultiReader pins the capacity frontier: one sweep outcome
// per slo.readers entry, deterministic across reruns, rendered with
// the frontier table.
func TestSweepMultiReader(t *testing.T) {
	mkSpec := func() scenario.Spec {
		spec := sweepSpec()
		spec.Name = "frontier-determinism"
		spec.SLO.Readers = []int{1, 2}
		return spec
	}
	a, err := Sweep(mkSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Frontier) != 2 {
		t.Fatalf("frontier has %d points, want 2", len(a.Frontier))
	}
	if len(a.Probes) != 0 {
		t.Fatalf("multi-reader report carries %d top-level probes, want 0", len(a.Probes))
	}
	for i, f := range a.Frontier {
		if f.Readers != []int{1, 2}[i] {
			t.Fatalf("frontier[%d].Readers = %d", i, f.Readers)
		}
		if len(f.Probes) == 0 {
			t.Fatalf("frontier[%d] evaluated no probes", i)
		}
		if f.Feasible && f.AtMax == nil {
			t.Fatalf("frontier[%d] feasible without AtMax detail", i)
		}
		// Aggregate accounting: a probe's offered tags must equal the
		// summed per-reader rosters × trials at the probed rate (each
		// reader keeps its own initial population; arrivals split).
		want := 0
		for r := 0; r < f.Readers; r++ {
			s := mkSpec()
			arr := *s.Workload.Arrivals
			arr.Rate = f.Probes[0].Rate
			s.Workload.Arrivals = &arr
			s.SLO = nil
			want += s.SplitForReader(r, f.Readers).TotalTags()
		}
		want *= mkSpec().Trials
		if got := f.Probes[0].Offered; got != want {
			t.Fatalf("frontier[%d] probe offers %d tags, want %d", i, got, want)
		}
	}
	if a.Feasible {
		best := 0.0
		for _, f := range a.Frontier {
			if f.Feasible && f.MaxRate > best {
				best = f.MaxRate
			}
		}
		if a.MaxRate != best {
			t.Fatalf("top-level MaxRate %v is not the frontier's best %v", a.MaxRate, best)
		}
	}
	b, err := Sweep(mkSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("multi-reader sweep not deterministic")
	}
	if a.Render() != b.Render() {
		t.Fatalf("rendered frontier reports differ")
	}
	if !strings.Contains(a.Render(), "capacity frontier (aggregate rate x readers):") {
		t.Fatalf("render missing frontier table:\n%s", a.Render())
	}
}

// TestSweepErrors pins the misuse diagnostics: a sweep needs an
// arrivals workload, an slo section, and a rate search band.
func TestSweepErrors(t *testing.T) {
	noArrivals := latencyDeterminismSpec()
	noArrivals.Workload.Arrivals = nil
	if _, err := Sweep(noArrivals); err == nil || !strings.Contains(err.Error(), "workload.arrivals") {
		t.Fatalf("no arrivals: err = %v, want workload.arrivals diagnostic", err)
	}

	noSLO := latencyDeterminismSpec()
	if _, err := Sweep(noSLO); err == nil || !strings.Contains(err.Error(), "slo section") {
		t.Fatalf("no slo: err = %v, want slo diagnostic", err)
	}

	noBand := sweepSpec()
	noBand.SLO.RateLo = 0
	noBand.SLO.RateHi = 0
	if _, err := Sweep(noBand); err == nil || !strings.Contains(err.Error(), "rate_lo and rate_hi") {
		t.Fatalf("no band: err = %v, want rate band diagnostic", err)
	}
}
