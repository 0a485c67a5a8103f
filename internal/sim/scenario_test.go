package sim

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bits"
	"repro/internal/prng"
	"repro/internal/scenario"
)

// TestScenarioStaticMatchesDataPhaseGolden proves the acceptance
// criterion that a declarative static-channel spec — parsed from JSON,
// as a workload file would be — reproduces the classic experiments byte
// for byte: the values below are the same pinned constants as
// TestGoldenDataPhaseDeterminism (captured on the PR-2 decoder, before
// the scenario engine existed).
func TestScenarioStaticMatchesDataPhaseGolden(t *testing.T) {
	spec, err := scenario.Parse([]byte(`{
		"version": 2, "name": "fig10-k8", "trials": 4, "seed": 777,
		"workload": {"k": 8},
		"channel": {"snr_lo_db": 14, "snr_hi_db": 30},
		"decode": {"restarts": 2, "max_slots": 320},
		"schemes": ["buzz", "tdma", "cdma"]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct{ ms, lost, rate float64 }{
		"buzz": {ms: 2.7749999999999999, lost: 0, rate: 1.3523809523809522},
		"tdma": {ms: 3.7000000000000002, lost: 0, rate: 1},
		"cdma": {ms: 3.7000000000000002, lost: 0.25, rate: 1},
	}
	for _, o := range out.Schemes {
		w := want[o.Scheme]
		if o.TransferMillis.Mean != w.ms || o.Undecoded.Mean != w.lost || o.BitsPerSymbol.Mean != w.rate {
			t.Fatalf("%s: got ms=%.17g lost=%.17g rate=%.17g, golden ms=%.17g lost=%.17g rate=%.17g",
				o.Scheme, o.TransferMillis.Mean, o.Undecoded.Mean, o.BitsPerSymbol.Mean, w.ms, w.lost, w.rate)
		}
	}
}

// dynamicGoldenSpecs are the pinned same-seed workloads of the scenario
// engine's two time-varying channel kinds and the population-churn
// path. The constants were captured at the stated seeds when the engine
// landed; any decode-path change must preserve them bit for bit (same
// recapture rules as golden_test.go). The CI matrix re-runs this test
// under GOMAXPROCS ∈ {1, 4} with the race detector.
func dynamicGoldenSpecs() []struct {
	name                    string
	spec                    scenario.Spec
	ms, lost, rate, correct float64
	wrong                   int
} {
	return []struct {
		name                    string
		spec                    scenario.Spec
		ms, lost, rate, correct float64
		wrong                   int
	}{
		{
			name: "block-fading",
			spec: scenario.Spec{
				Trials: 4, Seed: 4242,
				Workload: scenario.WorkloadSpec{K: 8},
				Channel: scenario.ChannelSpec{
					Kind: scenario.KindBlockFading, BlockLen: 32,
					SNRLodB: 14, SNRHidB: 30,
				},
			},
			ms: 2.890625, lost: 0, rate: 1.3047619047619048, correct: 8, wrong: 0,
		},
		{
			name: "gauss-markov",
			spec: scenario.Spec{
				Trials: 4, Seed: 4242,
				Workload: scenario.WorkloadSpec{K: 8},
				Channel: scenario.ChannelSpec{
					Kind: scenario.KindGaussMarkov, Rho: 0.999,
					SNRLodB: 14, SNRHidB: 30,
				},
			},
			ms: 2.890625, lost: 0, rate: 1.3555555555555556, correct: 8, wrong: 0,
		},
		{
			name: "population-churn",
			spec: scenario.Spec{
				Trials: 4, Seed: 4242,
				Workload: scenario.WorkloadSpec{
					K: 6,
					Population: []scenario.PopulationEvent{
						{Slot: 5, Arrive: 2},
						{Slot: 9, Depart: 1},
					},
				},
				Channel: scenario.ChannelSpec{
					Kind: scenario.KindGaussMarkov, Rho: 0.998,
					SNRLodB: 14, SNRHidB: 30,
				},
				Decode: scenario.DecodeSpec{MaxSlots: 400},
			},
			ms: 5.8656249999999996, lost: 0, rate: 1.1071428571428572, correct: 8, wrong: 0,
		},
	}
}

// setProcs sets GOMAXPROCS to n and returns a func that restores the
// previous value. The goldens run at 1 and 4 to pin that a batch's
// outputs do not depend on the trial pool's width or schedule.
func setProcs(n int) (restore func()) {
	prev := runtime.GOMAXPROCS(n)
	return func() { runtime.GOMAXPROCS(prev) }
}

// TestGoldenScenarioDynamics pins the dynamic scenario goldens and
// proves they are independent of the trial pool's width: the same spec
// run at GOMAXPROCS 1 and 4 must agree on every aggregate, and on the
// pinned constants.
func TestGoldenScenarioDynamics(t *testing.T) {
	for _, tc := range dynamicGoldenSpecs() {
		var first *ScenarioOutcome
		for _, procs := range []int{1, 4} {
			restore := setProcs(procs)
			out, err := Run(tc.spec)
			restore()
			if err != nil {
				t.Fatalf("%s GOMAXPROCS=%d: %v", tc.name, procs, err)
			}
			b := out.Schemes[0]
			if b.TransferMillis.Mean != tc.ms || b.Undecoded.Mean != tc.lost ||
				b.BitsPerSymbol.Mean != tc.rate || b.DeliveredCorrect.Mean != tc.correct ||
				b.WrongPayload != tc.wrong {
				t.Fatalf("%s GOMAXPROCS=%d: got ms=%.17g lost=%.17g rate=%.17g correct=%.17g wrong=%d, golden ms=%.17g lost=%.17g rate=%.17g correct=%.17g wrong=%d",
					tc.name, procs, b.TransferMillis.Mean, b.Undecoded.Mean, b.BitsPerSymbol.Mean, b.DeliveredCorrect.Mean, b.WrongPayload,
					tc.ms, tc.lost, tc.rate, tc.correct, tc.wrong)
			}
			if first == nil {
				first = out
			} else if !reflect.DeepEqual(first.Schemes, out.Schemes) {
				t.Fatalf("%s: outcome depends on GOMAXPROCS", tc.name)
			}
		}
	}
}

// TestScenarioPopulationDetail exercises the per-trial detail path: an
// early departure must surface as a retired, undelivered tag; arrivals
// must join and (on this benign channel) deliver; and the
// re-identification bursts must be charged.
func TestScenarioPopulationDetail(t *testing.T) {
	spec := scenario.Spec{
		Trials: 3, Seed: 99,
		Workload: scenario.WorkloadSpec{
			K: 5,
			Population: []scenario.PopulationEvent{
				{Slot: 2, Depart: 1},
				{Slot: 6, Arrive: 2},
			},
		},
		Channel: scenario.ChannelSpec{
			Kind: scenario.KindGaussMarkov, Rho: 0.999,
			SNRLodB: 16, SNRHidB: 28,
		},
		Decode: scenario.DecodeSpec{MaxSlots: 400},
	}
	out, err := Run(spec, WithTrialDetail())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Trials) != spec.Trials {
		t.Fatalf("kept %d trials, want %d", len(out.Trials), spec.Trials)
	}
	for ti, tr := range out.Trials {
		if len(tr.Verified) != 7 || len(tr.Retired) != 7 {
			t.Fatalf("trial %d: roster size %d, want 7", ti, len(tr.Verified))
		}
		if tr.ReidentBitSlots == 0 {
			t.Errorf("trial %d: arrivals were not charged a re-identification burst", ti)
		}
		retired := 0
		for i, r := range tr.Retired {
			if r {
				retired++
				if tr.Verified[i] {
					t.Errorf("trial %d: tag %d both retired and verified", ti, i)
				}
			}
		}
		// Tag 0 departs at slot 2. Either it managed one of the paper's
		// slot-1 confident decodes, or it must be retired — never
		// neither, never both.
		if tr.Retired[0] == tr.Verified[0] {
			t.Errorf("trial %d: slot-2 departer retired=%v verified=%v", ti, tr.Retired[0], tr.Verified[0])
		}
		for i := 5; i < 7; i++ {
			if !tr.Verified[i] {
				t.Errorf("trial %d: arrival %d did not deliver", ti, i)
			}
		}
	}
	b := out.Schemes[0]
	if b.WrongPayload != 0 {
		t.Errorf("%d wrong payloads under churn", b.WrongPayload)
	}
}

// TestScenarioCustomMessages exercises the options hook the examples
// use: caller-supplied payloads must round-trip through the engine.
func TestScenarioCustomMessages(t *testing.T) {
	spec := scenario.Spec{
		Trials: 2, Seed: 7,
		Workload: scenario.WorkloadSpec{K: 4, MessageBits: 16},
		Channel:  scenario.ChannelSpec{SNRLodB: 18, SNRHidB: 30},
	}
	mk := func(trial int) []bits.Vector {
		src := prng.NewSource(uint64(1000 + trial))
		msgs := make([]bits.Vector, 4)
		for i := range msgs {
			msgs[i] = bits.Random(src, 16)
		}
		return msgs
	}
	out, err := Run(spec, WithMessages(mk), WithTrialDetail())
	if err != nil {
		t.Fatal(err)
	}
	for ti, tr := range out.Trials {
		want := mk(ti)
		for i, ok := range tr.Verified {
			if !ok {
				continue
			}
			if !tr.Payloads[i].Equal(want[i]) {
				t.Errorf("trial %d tag %d: delivered payload differs from the supplied message", ti, i)
			}
		}
	}
	if out.Schemes[0].WrongPayload != 0 {
		t.Errorf("wrong payloads with custom messages")
	}
}
