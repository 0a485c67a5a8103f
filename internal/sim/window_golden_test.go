package sim

import (
	"reflect"
	"testing"

	"repro/internal/scenario"
)

// fastMobilitySpec is the fast-mobility regression workload, the same
// spec as examples/scenarios/fast-mobility.json: Gauss–Markov drift at
// ρ = 0.9 per slot — far past the ρ ≳ 0.99 regime the whole-round
// decoder can survive — decoded with the coherence window derived from
// the channel ("auto" resolves to 8 slots here).
func fastMobilitySpec() scenario.Spec {
	return scenario.Spec{
		Name: "fast-mobility", Trials: 24, Seed: 2026,
		Workload: scenario.WorkloadSpec{K: 8},
		Channel:  scenario.ChannelSpec{Kind: scenario.KindGaussMarkov, Rho: 0.9},
		Decode:   scenario.DecodeSpec{MaxSlots: 320, Window: scenario.WindowAuto},
	}
}

// TestGoldenFastMobilityWindowed pins the coherence-windowed decode on
// the fast-mobility workload, at inline and 4-way position decode. The
// load-bearing constant is wrong = 0: at ρ = 0.9 the whole-round
// decoder false-accepts massively (see the companion test below), and
// the window + drift-rescaled double-confirmation gates must deliver
// more correct messages than it does while accepting none that are
// wrong. Same recapture rules as golden_test.go.
func TestGoldenFastMobilityWindowed(t *testing.T) {
	const (
		wantMs      = 148.0
		wantLost    = 4.833333333333333
		wantRate    = 0.0098958333333333329
		wantCorrect = 3.1666666666666665
		wantWrong   = 0
		wantWindow  = 8
	)
	var first *ScenarioOutcome
	for _, procs := range []int{1, 4} {
		restore := setProcs(procs)
		out, err := Run(fastMobilitySpec(), WithTrialDetail())
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
			if tr.WindowSlots != wantWindow {
				t.Fatalf("GOMAXPROCS=%d trial %d: window %d slots, want %d", procs, ti, tr.WindowSlots, wantWindow)
			}
			if tr.RowsRetired == 0 {
				t.Fatalf("GOMAXPROCS=%d trial %d: no rows retired under an %d-slot window over %d slots", procs, ti, wantWindow, tr.SlotsUsed)
			}
		}
		if first == nil {
			first = out
		} else if !reflect.DeepEqual(first.Schemes, out.Schemes) {
			t.Fatal("fast-mobility outcome depends on GOMAXPROCS")
		}
	}
}

// TestFastMobilityUnwindowedFalseAccepts documents the failure mode
// the window exists for (the ROADMAP item this PR closes): the same
// workload decoded without a window false-accepts wrong payloads — the
// stale rows' model error both corrupts the joint decode and inflates
// the margins the CRC gate trusts. The exact count is seed-dependent;
// what must hold is that it is badly nonzero, and that windowed decode
// (above) turns it into exactly zero while delivering more correct
// messages.
func TestFastMobilityUnwindowedFalseAccepts(t *testing.T) {
	spec := fastMobilitySpec()
	spec.Decode.Window = ""
	out, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b := out.Schemes[0]
	if b.WrongPayload == 0 {
		t.Fatal("whole-round decoder no longer false-accepts at rho=0.9 — if the decoder genuinely improved, re-point this test (and the ROADMAP) at a regime where it still does")
	}
	if b.DeliveredCorrect.Mean >= 3.1666666666666665 {
		t.Fatalf("whole-round decoder delivered %.3f correct — windowed decode no longer beats it, recheck the gates", b.DeliveredCorrect.Mean)
	}
}

// TestGoldenFastMobilitySpecFile pins that the committed example spec
// is the golden workload: examples/scenarios/fast-mobility.json parsed
// from disk must equal fastMobilitySpec after defaults.
func TestGoldenFastMobilitySpecFile(t *testing.T) {
	loaded, err := scenario.Load("../../examples/scenarios/fast-mobility.json")
	if err != nil {
		t.Fatal(err)
	}
	want := fastMobilitySpec().WithDefaults()
	if !reflect.DeepEqual(loaded, want) {
		t.Fatalf("spec file drifted from the golden workload:\nfile: %+v\nwant: %+v", loaded, want)
	}
}
