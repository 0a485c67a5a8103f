package sim

import (
	"reflect"
	"testing"

	"repro/internal/scenario"
)

// mixedMobilitySpec is the heterogeneous-mobility regression workload,
// the same spec as examples/scenarios/mixed-mobility.json: half the
// roster parked (ρ = 1), half moving fast (ρ = 0.9), decoded with one
// window per tag — parked tags keep their whole history while the
// movers forget on an 8-slot clock.
func mixedMobilitySpec() scenario.Spec {
	return scenario.Spec{
		Name: "mixed-mobility", Trials: 24, Seed: 2026,
		Workload: scenario.WorkloadSpec{K: 8},
		Channel: scenario.ChannelSpec{
			Kind:      scenario.KindGaussMarkov,
			PerTagRho: []float64{1, 1, 1, 1, 0.9, 0.9, 0.9, 0.9},
		},
		Decode: scenario.DecodeSpec{MaxSlots: 320, Window: scenario.WindowPerTag},
	}
}

// TestGoldenMixedMobilityPerTag pins the per-tag-windowed decode on the
// mixed-mobility workload, at inline and 4-way position decode. The
// load-bearing constants: wrong = 0 (the per-tag gates accept nothing
// false) and correct strictly above the global-auto decoder's take on
// the identical workload (the companion test below) — the parked half
// of the roster keeps evidence the global window would discard. Same
// recapture rules as golden_test.go.
func TestGoldenMixedMobilityPerTag(t *testing.T) {
	const (
		wantMs      = 148.0
		wantLost    = 2.75
		wantRate    = 0.016406250000000001
		wantCorrect = 5.25
		wantWrong   = 0
	)
	var first *ScenarioOutcome
	for _, procs := range []int{1, 4} {
		restore := setProcs(procs)
		out, err := Run(mixedMobilitySpec(), WithTrialDetail())
		restore()
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		b := out.Schemes[0]
		if b.TransferMillis.Mean != wantMs || b.Undecoded.Mean != wantLost ||
			b.BitsPerSymbol.Mean != wantRate || b.DeliveredCorrect.Mean != wantCorrect ||
			b.WrongPayload != wantWrong {
			t.Fatalf("GOMAXPROCS=%d: got ms=%.17g lost=%.17g rate=%.17g correct=%.17g wrong=%d, golden ms=%.17g lost=%.17g rate=%.17g correct=%.17g wrong=%d",
				procs, b.TransferMillis.Mean, b.Undecoded.Mean, b.BitsPerSymbol.Mean, b.DeliveredCorrect.Mean, b.WrongPayload,
				wantMs, wantLost, wantRate, wantCorrect, wantWrong)
		}
		for ti, tr := range out.Trials {
			if len(tr.RowsRetiredPerTag) != 8 {
				t.Fatalf("GOMAXPROCS=%d trial %d: RowsRetiredPerTag has %d entries, want 8", procs, ti, len(tr.RowsRetiredPerTag))
			}
			for i, n := range tr.RowsRetiredPerTag {
				parked := i < 4
				if parked && n != 0 {
					t.Fatalf("GOMAXPROCS=%d trial %d: parked tag %d retired %d rows, want 0", procs, ti, i, n)
				}
				if !parked && n == 0 {
					t.Fatalf("GOMAXPROCS=%d trial %d: mover %d retired no rows over %d slots", procs, ti, i, tr.SlotsUsed)
				}
			}
		}
		if first == nil {
			first = out
		} else if !reflect.DeepEqual(first.Schemes, out.Schemes) {
			t.Fatal("mixed-mobility outcome depends on GOMAXPROCS")
		}
	}
}

// TestMixedMobilityPerTagBeatsGlobalAuto is the acceptance property the
// per-tag window exists for: on the identical seed and workload, the
// per-tag decode must deliver strictly more correct payloads than the
// global "auto" window — which forces the parked tags onto the
// movers' 8-slot clock — while both stay at zero wrong payloads.
func TestMixedMobilityPerTagBeatsGlobalAuto(t *testing.T) {
	perTag, err := Run(mixedMobilitySpec())
	if err != nil {
		t.Fatal(err)
	}
	globalSpec := mixedMobilitySpec()
	globalSpec.Decode.Window = scenario.WindowAuto
	global, err := Run(globalSpec)
	if err != nil {
		t.Fatal(err)
	}
	p, g := perTag.Schemes[0], global.Schemes[0]
	if p.WrongPayload != 0 || g.WrongPayload != 0 {
		t.Fatalf("wrong payloads: per-tag %d, global %d — want 0 and 0", p.WrongPayload, g.WrongPayload)
	}
	if p.DeliveredCorrect.Mean <= g.DeliveredCorrect.Mean {
		t.Fatalf("per-tag window delivered %.4f correct vs global auto's %.4f — the per-tag decode no longer beats the global window, recheck the gates",
			p.DeliveredCorrect.Mean, g.DeliveredCorrect.Mean)
	}
}

// TestGoldenMixedMobilitySpecFile pins that the committed example spec
// is the golden workload: examples/scenarios/mixed-mobility.json parsed
// from disk must equal mixedMobilitySpec after defaults.
func TestGoldenMixedMobilitySpecFile(t *testing.T) {
	loaded, err := scenario.Load("../../examples/scenarios/mixed-mobility.json")
	if err != nil {
		t.Fatal(err)
	}
	want := mixedMobilitySpec().WithDefaults()
	if !reflect.DeepEqual(loaded, want) {
		t.Fatalf("spec file drifted from the golden workload:\nfile: %+v\nwant: %+v", loaded, want)
	}
}
