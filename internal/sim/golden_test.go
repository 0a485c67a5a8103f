package sim

import (
	"fmt"
	"math"
	"testing"
)

// The constants below were captured from the PR-2 decoder (incremental
// cross-slot sessions, deterministic per-(slot, position) PRNG streams,
// ziggurat noise sampling) at the stated seeds. Any change to the
// decode path must preserve them bit for bit: same seed → same floats,
// no tolerance. If a future change legitimately alters the numerics
// (a different decoder or noise model, not a different allocator or
// scheduler), recapture them, say so in the commit message, and prove
// the end-to-end statistics unchanged (see stats_test.go) — exactly the
// procedure PR 2 followed when the per-position PRNG scheme and the
// ziggurat sampler re-pinned the pre-PR-2 values.

// TestGoldenHeadlineDeterminism pins RunHeadline(2, 12345) and re-runs
// it to prove the result is independent of worker scheduling, arena
// reuse and session reuse.
func TestGoldenHeadlineDeterminism(t *testing.T) {
	const (
		wantIdent   = 4.148972352207255
		wantData    = 1.1402086475615889
		wantOverall = 1.6925386775710782
	)
	for round := 0; round < 2; round++ {
		h, err := RunHeadline(2, 12345)
		if err != nil {
			t.Fatal(err)
		}
		if h.IdentSpeedup != wantIdent || h.DataRateGain != wantData || h.OverallSpeedup != wantOverall {
			t.Fatalf("round %d: RunHeadline(2, 12345) = {%.17g, %.17g, %.17g}, golden {%.17g, %.17g, %.17g}",
				round, h.IdentSpeedup, h.DataRateGain, h.OverallSpeedup, wantIdent, wantData, wantOverall)
		}
	}
}

// TestGoldenDecodeProgress pins the Fig. 9 trace: DecodeProgress(8, 23)
// must reproduce the captured per-slot series exactly.
func TestGoldenDecodeProgress(t *testing.T) {
	const want = "[{1 5 0 0 0} {2 5 0 0 0} {3 7 0 0 0} {4 4 1 1 0.25} {5 5 4 5 1} {6 4 2 7 1.1666666666666667} {7 2 1 8 1.1428571428571428}]"
	prog, err := DecodeProgress(8, 23)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(prog); got != want {
		t.Fatalf("DecodeProgress(8, 23) drifted:\n got %s\nwant %s", got, want)
	}
}

// TestGoldenDataPhaseDeterminism pins the Fig. 10 experiment the same
// way: CompareDataPhase(K=8, Trials=4, Seed=777) must reproduce the
// captured means exactly.
func TestGoldenDataPhaseDeterminism(t *testing.T) {
	want := map[string]struct{ ms, lost, rate float64 }{
		"buzz": {ms: 2.7749999999999999, lost: 0, rate: 1.3523809523809522},
		"tdma": {ms: 3.7000000000000002, lost: 0, rate: 1},
		"cdma": {ms: 3.7000000000000002, lost: 0.25, rate: 1},
	}
	out, err := CompareDataPhase(DataPhaseConfig{K: 8, Trials: 4, Seed: 777, Profile: DefaultProfile()})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range out {
		w, ok := want[o.Scheme]
		if !ok {
			t.Fatalf("unexpected scheme %q", o.Scheme)
		}
		if o.TransferMillis.Mean != w.ms || o.Undecoded.Mean != w.lost || o.BitsPerSymbol.Mean != w.rate {
			t.Fatalf("%s: got ms=%.17g lost=%.17g rate=%.17g, golden ms=%.17g lost=%.17g rate=%.17g",
				o.Scheme, o.TransferMillis.Mean, o.Undecoded.Mean, o.BitsPerSymbol.Mean, w.ms, w.lost, w.rate)
		}
		if o.WrongPayload != 0 {
			t.Fatalf("%s delivered %d wrong payloads", o.Scheme, o.WrongPayload)
		}
	}
	if math.IsNaN(out[0].TransferMillis.Std) {
		t.Fatal("buzz stddev is NaN")
	}
}
