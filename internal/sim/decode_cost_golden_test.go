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
// The restart certificate (bp's certify) moved RestartPasses and Flips
// only: it skips the restarts of certified positions and leaves every
// outcome digest as it was.
func TestGoldenDecodeCost(t *testing.T) {
	golden := map[string]struct {
		digest string
		cost   bp.DecodeCost
	}{
		"block-fading.json":      {"055d62e4e5ed7016", bp.DecodeCost{DescentPasses: 5365, RestartPasses: 7336, Flips: 24211}},
		"conveyor.json":          {"6784a9194762a4d6", bp.DecodeCost{DescentPasses: 31524, RestartPasses: 34228, Flips: 76625}},
		"dock-door.json":         {"de0015f77c8b4734", bp.DecodeCost{DescentPasses: 8066, RestartPasses: 742, Flips: 1832}},
		"fast-mobility.json":     {"122bc348aa6dc8cf", bp.DecodeCost{DescentPasses: 284160, RestartPasses: 494214, Flips: 1687288}},
		"mixed-mobility.json":    {"186177a573606762", bp.DecodeCost{DescentPasses: 284160, RestartPasses: 369038, Flips: 995612}},
		"mobility.json":          {"f29efa6f913ba503", bp.DecodeCost{DescentPasses: 532800, RestartPasses: 908404, Flips: 2385578}},
		"warehouse-shape/555001": {"665c3bc73077397d", bp.DecodeCost{DescentPasses: 12864, RestartPasses: 3862, Flips: 10148}},
		"warehouse-shape/655001": {"e09c6d9e0fe60735", bp.DecodeCost{DescentPasses: 16608, RestartPasses: 1746, Flips: 5205}},
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

// TestGoldenLargeK pins two Gauss–Markov transfers of 80 tags, past the
// paper's K ≤ 16, the way TestGoldenDecodeCost pins the example specs:
// outcome digest and exact DecodeCost, at GOMAXPROCS 1 and 4 (the
// subtests' par). The per-tag window drives RetireTag and RetapTags
// every slot; the auto window at ρ 0.99 drives Retire. Each of them
// invalidates the session, so both transfers rebuild on nearly every
// slot.
func TestGoldenLargeK(t *testing.T) {
	golden := []struct {
		name, spec string
		digest     string
		cost       bp.DecodeCost
	}{
		{
			"per-tag",
			`{"k": 80, "trials": 1, "seed": 2026, "channel": {"kind": "gauss-markov", "rho": 0.95}, "window": "per_tag", "max_slots": 200}`,
			"c3266c08ca5a2a1b", bp.DecodeCost{DescentPasses: 7400, RestartPasses: 14796, Flips: 325435},
		},
		{
			"auto",
			`{"k": 80, "trials": 1, "seed": 2026, "channel": {"kind": "gauss-markov", "rho": 0.99}, "window": "auto", "max_slots": 200}`,
			"b5b8d1165e52dcec", bp.DecodeCost{DescentPasses: 7400, RestartPasses: 14794, Flips: 532663},
		},
	}
	for _, g := range golden {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/par=%d", g.name, par), func(t *testing.T) {
				spec, err := scenario.Parse([]byte(g.spec))
				if err != nil {
					t.Fatal(err)
				}
				restore := setProcs(par)
				out, err := Run(spec, WithTrialDetail())
				restore()
				if err != nil {
					t.Fatal(err)
				}
				if got := outcomeDigest(out); got != g.digest || out.DecodeCost != g.cost {
					t.Errorf("got {%q, bp.DecodeCost{DescentPasses: %d, RestartPasses: %d, Flips: %d}}, golden {%q, %+v}",
						got, out.DecodeCost.DescentPasses, out.DecodeCost.RestartPasses, out.DecodeCost.Flips,
						g.digest, g.cost)
				}
			})
		}
	}
}
