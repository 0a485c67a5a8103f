package identify

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/channel"
	"repro/internal/prng"
	"repro/internal/scratch"
)

// stageAObs is one stage-A step's observation: the step index and the
// number of its s slots that were empty.
type stageAObs struct {
	step, empty int
}

// directKScan is the stage-A likelihood scan evaluated term by term,
// with one Exp and one Log per candidate and step: the reference the
// memoized rows must reproduce bit for bit. It returns K̂ and the best
// log-likelihood.
func directKScan(obs []stageAObs, s int) (int, float64) {
	type stepObs struct {
		logQ  float64
		empty int
	}
	var observations []stepObs
	for _, o := range obs {
		p := math.Pow(2, -float64(o.step))
		observations = append(observations, stepObs{logQ: math.Log1p(-p), empty: o.empty})
	}
	logFloor, logCeil := math.Log(pFloor), math.Log(pCeil)
	kHat := 1
	bestLL := math.Inf(-1)
	next := func(k int) int {
		if k < 64 {
			return k + 1
		}
		if n := k + k/50; n != k {
			return n
		}
		return k + 1
	}
	for kCand := 1; kCand <= 1<<20; kCand = next(kCand) {
		ll := 0.0
		for _, o := range observations {
			logP := float64(kCand) * o.logQ
			pEmpty := 0.0
			if logP >= -691 {
				pEmpty = math.Exp(logP)
			}
			if pEmpty < pFloor {
				pEmpty, logP = pFloor, logFloor
			}
			if pEmpty > pCeil {
				pEmpty, logP = pCeil, logCeil
			}
			t := float64(o.empty) * logP
			if q := 1 - pEmpty; q != 1 && s != o.empty {
				t += float64(s-o.empty) * math.Log(q)
			}
			ll += t
		}
		if ll > bestLL {
			bestLL = ll
			kHat = kCand
		}
	}
	return kHat, bestLL
}

// memoKScan is the same scan through the memoized rows, as Run does it.
func memoKScan(obs []stageAObs, s int) (int, float64) {
	ll := make([]float64, len(kCandidates))
	for _, o := range obs {
		addStep(ll, o.step, s, o.empty)
	}
	return kEstimate(ll)
}

// TestKEstimateMatchesDirectScan pins the memoized stage-A scan against
// the direct term-by-term scan: K̂ and the best log-likelihood must be
// identical, bitwise, over random observation sets at SlotsPerStep 1,
// 4, 8 and 16. The sets cover the consecutive steps Run observes, steps
// clamped at the floor (early steps at large K) and at the ceiling (late
// steps, where every candidate clamps), steps far past the memo's last
// row (p rounds to 0 from step 1075 on), and exact ties between
// candidates.
func TestKEstimateMatchesDirectScan(t *testing.T) {
	for step := stageARowSteps; step <= 1<<16; step = step*3/2 + 1 {
		if p := math.Pow(2, -float64(step)); p != 0 {
			t.Fatalf("step %d: p = %g, want 0 past the memo's last row", step, p)
		}
	}
	src := prng.NewSource(0x4B5)
	check := func(what string, obs []stageAObs, s int) {
		t.Helper()
		wk, wll := directKScan(obs, s)
		gk, gll := memoKScan(obs, s)
		if gk != wk || math.Float64bits(gll) != math.Float64bits(wll) {
			t.Fatalf("%s (s=%d, %v): K̂ %d with log-likelihood %v, direct scan %d with %v", what, s, obs, gk, gll, wk, wll)
		}
	}
	for _, s := range []int{1, 4, 8, 16} {
		for trial := 0; trial < 40; trial++ {
			// Consecutive steps from 1, as Run observes them.
			n := 1 + src.IntN(24)
			obs := make([]stageAObs, n)
			for j := range obs {
				obs[j] = stageAObs{step: j + 1, empty: src.IntN(s + 1)}
			}
			check("consecutive", obs, s)

			// Arbitrary steps, late and past the memoized range included.
			obs = obs[:0]
			for j := 1 + src.IntN(8); j > 0; j-- {
				step := 1 + src.IntN(80)
				switch src.IntN(4) {
				case 0:
					step = 1000 + src.IntN(200)
				case 1:
					step = 2000 + src.IntN(1<<20)
				}
				obs = append(obs, stageAObs{step: step, empty: src.IntN(s + 1)})
			}
			check("arbitrary", obs, s)
		}
		// Clamped at the floor: steps 1 and 2 with no empty slot favor
		// large K, and every K from 1996 up ties at the floor's +0.
		check("floor", []stageAObs{{1, 0}, {2, 0}}, s)
		// Every candidate clamped at the ceiling, every slot empty: all
		// candidates tie exactly, and the first one wins.
		check("ceiling tie", []stageAObs{{70, s}, {90, s}, {3000, s}}, s)
		// The floor decides the winner: one empty slot at step 1 floors
		// every K from 997 up, and busy steps 12–24 favor the largest K.
		obs := []stageAObs{{1, 1}}
		for step := 12; step <= 24; step++ {
			obs = append(obs, stageAObs{step, 0})
		}
		check("floored winner", obs, s)
		// No observation at all: every log-likelihood is +0.
		check("empty", nil, s)
	}
	if k, ll := memoKScan([]stageAObs{{70, 4}, {80, 4}}, 4); k != 1 || ll != 4*2*math.Log(pCeil) {
		t.Fatalf("ceiling tie: K̂ %d with log-likelihood %v, want the first candidate", k, ll)
	}
}

// TestRunMaxStepsPastMemo runs stage A past the memoized rows: with an
// empty-slot threshold above 1 no step ever counts as a crossing, so the
// scan observes all MaxSteps steps.
func TestRunMaxStepsPastMemo(t *testing.T) {
	src := prng.NewSource(5)
	ids := activeSet(src, 4)
	ch := channel.NewFromSNRBand(4, 14, 30, src)
	const steps = stageARowSteps + 40
	res, err := Run(Config{Salt: 1, MaxSteps: steps, EmptyThreshold: 2}, ids, ch, src.Fork(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != steps || res.KEstimate < 1 {
		t.Fatalf("%d steps, K̂ %d; want %d steps and a K̂", res.Steps, res.KEstimate, steps)
	}
}

// TestRunConcurrentMatchesSerial pins that the process-wide stage-A rows
// are safe to build from concurrent sessions: with the memo emptied,
// four goroutines, each on its own arena, run the same sessions at once
// and race to build every row on first use (some sessions run with an
// empty-slot threshold no step meets, so they reach steps no default
// session does). Every goroutine's per-session outputs must
// equal those of a serial run on an emptied memo.
func TestRunConcurrentMatchesSerial(t *testing.T) {
	var cases []goldenCase
	for _, gc := range goldenCases() {
		if gc.seed < 2 && gc.k%3 == 0 {
			cases = append(cases, gc)
		}
	}
	cfgOf := func(n int) Config {
		if n%4 == 3 {
			return Config{MaxSteps: 60 + n, EmptyThreshold: 2}
		}
		return Config{}
	}
	clearMemo := func() {
		for i := range stageARows {
			stageARows[i].Store(nil)
		}
	}
	run := func(sc *scratch.Scratch) [][]uint64 {
		out := make([][]uint64, len(cases))
		for n, gc := range cases {
			cfg := cfgOf(n)
			cfg.Scratch = sc
			out[n] = sessionOutputs(t, gc, cfg)
			sc.Reset()
		}
		return out
	}
	clearMemo()
	const workers = 4
	got := make([][][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = run(scratch.New())
		}(w)
	}
	wg.Wait()
	clearMemo()
	want := run(scratch.New())
	for w := range got {
		for n := range cases {
			if !slices.Equal(got[w][n], want[n]) {
				t.Fatalf("goroutine %d, session %d (%+v): outputs %v, serial %v", w, n, cases[n], got[w][n], want[n])
			}
		}
	}
}

// TestRunRejectsSaturatedKEstimate pins the all-busy failure: with a
// detection threshold far under the noise floor every slot reads busy,
// so no stage-A step bounds K. The scan alone then puts K̂ at the top
// of the candidate grid — what stages B and C used to be sized from
// (10⁷ buckets) — and Run must return an error instead.
func TestRunRejectsSaturatedKEstimate(t *testing.T) {
	ll := make([]float64, len(kCandidates))
	for step := 1; step <= 48; step++ {
		addStep(ll, step, 8, 0)
	}
	if kHat, _ := kEstimate(ll); kHat != 1035833 {
		t.Fatalf("48 all-busy steps give K̂ %d, want the grid's top 1035833", kHat)
	}

	src := prng.NewSource(11)
	ids := activeSet(src, 4)
	ch := channel.NewFromSNRBand(4, 14, 30, src)
	res, err := Run(Config{Salt: 1, DetectFactor: 1e-12}, ids, ch, src.Fork(1))
	if err == nil {
		t.Fatalf("all-busy stage A returned K̂ %d and %d candidates, want an error", res.KEstimate, res.Candidates)
	}
	if !strings.Contains(err.Error(), "saturated") {
		t.Fatalf("error %q does not name the saturated estimate", err)
	}
}
