package sim

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"testing"

	"repro/internal/bp"
	"repro/internal/scenario"
)

// tier1DecodeBudget is the engine conformance suite's tier-1 cut:
// specs whose roster × slot budget exceeds it (the warehouse capacity
// spec) run in the warehouse-scale CI job instead.
const tier1DecodeBudget = 100_000

// outcomeDigest hashes the decision-bearing part of a scenario run:
// per trial, the slots used, the verified flags and every delivered
// payload, in trial and roster order.
func outcomeDigest(out *ScenarioOutcome) string {
	h := fnv.New64a()
	for _, tr := range out.Trials {
		fmt.Fprintf(h, "%d|%v|", tr.SlotsUsed, tr.Verified)
		for _, p := range tr.Payloads {
			fmt.Fprintf(h, "%v;", []bool(p))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// warehouseShape is the benchmark's warehouse workload: the example
// warehouse spec cut to 100 arrivals over 400 slots and one trial.
func warehouseShape(t *testing.T, seed uint64) scenario.Spec {
	t.Helper()
	spec, err := scenario.Load("../../examples/scenarios/warehouse.json")
	if err != nil {
		t.Fatal(err)
	}
	a := *spec.Workload.Arrivals
	a.Count = 100
	spec.Workload.Arrivals = &a
	spec.Decode.MaxSlots = 400
	spec.Trials = 1
	spec.Seed = seed
	return spec
}

// TestGoldenDecodeCost pins, for every tier-1 example spec and the
// benchmark's warehouse shape at two seeds, both the outcome digest
// (slots used, verified flags, payloads) and the exact DecodeCost —
// descent passes, restart passes and bit flips. The counters are
// deterministic integers, so a change that moves decode effort fails
// here exactly rather than hiding inside a timing tolerance; a
// performance-only change to the decoder must leave every row as is.
func TestGoldenDecodeCost(t *testing.T) {
	golden := map[string]struct {
		digest string
		cost   bp.DecodeCost
	}{
		"block-fading.json":      {"dc8c4042d9151f7f", bp.DecodeCost{DescentPasses: 5439, RestartPasses: 10878, Flips: 27323}},
		"conveyor.json":          {"6784a9194762a4d6", bp.DecodeCost{DescentPasses: 31524, RestartPasses: 63048, Flips: 112593}},
		"dock-door.json":         {"de0015f77c8b4734", bp.DecodeCost{DescentPasses: 8066, RestartPasses: 16132, Flips: 6311}},
		"fast-mobility.json":     {"122bc348aa6dc8cf", bp.DecodeCost{DescentPasses: 284160, RestartPasses: 568320, Flips: 1871233}},
		"mixed-mobility.json":    {"186177a573606762", bp.DecodeCost{DescentPasses: 284160, RestartPasses: 568320, Flips: 1271370}},
		"mobility.json":          {"f29efa6f913ba503", bp.DecodeCost{DescentPasses: 532800, RestartPasses: 1065600, Flips: 2694597}},
		"warehouse-shape/555001": {"665c3bc73077397d", bp.DecodeCost{DescentPasses: 12864, RestartPasses: 25728, Flips: 30217}},
		"warehouse-shape/655001": {"e09c6d9e0fe60735", bp.DecodeCost{DescentPasses: 16608, RestartPasses: 33216, Flips: 19201}},
	}
	type run struct {
		name string
		spec scenario.Spec
	}
	var runs []run
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example scenarios found: %v", err)
	}
	for _, path := range files {
		spec, err := scenario.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if spec.TotalTags()*spec.Decode.MaxSlots > tier1DecodeBudget {
			continue
		}
		runs = append(runs, run{filepath.Base(path), spec})
	}
	// The benchmark's first op at -seed 0 and at the hold-out -seed 1.
	for _, seed := range []uint64{555001, 655001} {
		runs = append(runs, run{fmt.Sprintf("warehouse-shape/%d", seed), warehouseShape(t, seed)})
	}
	if len(runs) != len(golden) {
		t.Errorf("%d runs for %d golden rows", len(runs), len(golden))
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			want, ok := golden[r.name]
			if !ok {
				t.Fatalf("no golden row for %s", r.name)
			}
			out, err := Run(r.spec, WithTrialDetail())
			if err != nil {
				t.Fatal(err)
			}
			if got := outcomeDigest(out); got != want.digest || out.DecodeCost != want.cost {
				t.Errorf("got {%q, bp.DecodeCost{DescentPasses: %d, RestartPasses: %d, Flips: %d}}, golden {%q, %+v}",
					got, out.DecodeCost.DescentPasses, out.DecodeCost.RestartPasses, out.DecodeCost.Flips,
					want.digest, want.cost)
			}
		})
	}
}
