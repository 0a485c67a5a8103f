package identify

import (
	"math"
	mbits "math/bits"
	"math/cmplx"
	"testing"

	"repro/internal/channel"
	"repro/internal/prng"
	"repro/internal/scratch"
)

// activeSet draws k distinct "global ids" from a huge population — the
// point of the protocol is that N (here 2^40) never enters the cost.
func activeSet(src *prng.Source, k int) []uint64 {
	ids := make([]uint64, k)
	seen := map[uint64]bool{}
	for i := 0; i < k; {
		id := src.Uint64() % (1 << 40)
		if !seen[id] {
			seen[id] = true
			ids[i] = id
			i++
		}
	}
	return ids
}

func TestRunIdentifiesAllTagsGoodChannel(t *testing.T) {
	src := prng.NewSource(1)
	for _, k := range []int{4, 8, 12, 16} {
		ok := 0
		const trials = 5
		for trial := 0; trial < trials; trial++ {
			ids := activeSet(src, k)
			ch := channel.NewFromSNRBand(k, 15, 25, src)
			cfg := Config{Salt: uint64(trial*100 + k)}
			res, err := Run(cfg, ids, ch, src.Fork(uint64(trial)))
			if err != nil {
				t.Fatalf("k=%d trial %d: %v", k, trial, err)
			}
			identified, dups := Match(res, ids)
			got := 0
			for _, b := range identified {
				if b {
					got++
				}
			}
			if got == k-dups && dups == 0 {
				ok++
			} else {
				t.Logf("k=%d trial %d: identified %d/%d (dups %d), K̂=%d candidates=%d",
					k, trial, got, k, dups, res.KEstimate, res.Candidates)
			}
		}
		if ok < trials-1 {
			t.Errorf("k=%d: full identification in only %d/%d trials", k, ok, trials)
		}
	}
}

func TestRunKEstimateReasonable(t *testing.T) {
	src := prng.NewSource(2)
	for _, k := range []int{4, 8, 16, 32} {
		total := 0.0
		const trials = 10
		for trial := 0; trial < trials; trial++ {
			ids := activeSet(src, k)
			ch := channel.NewFromSNRBand(k, 15, 25, src)
			res, err := Run(Config{Salt: uint64(trial)}, ids, ch, src.Fork(uint64(k*100+trial)))
			if err != nil {
				t.Fatal(err)
			}
			total += float64(res.KEstimate)
		}
		mean := total / trials
		if mean < float64(k)/3 || mean > float64(k)*3 {
			t.Errorf("k=%d: mean K̂ = %.1f outside [k/3, 3k]", k, mean)
		}
	}
}

func TestRunChannelEstimates(t *testing.T) {
	// Stage C must return usable channel taps — the data phase decodes
	// with them.
	src := prng.NewSource(3)
	k := 8
	ids := activeSet(src, k)
	ch := channel.NewFromSNRBand(k, 18, 26, src)
	res, err := Run(Config{Salt: 7}, ids, ch, src.Fork(1))
	if err != nil {
		t.Fatal(err)
	}
	// Map temp ids back to tags.
	tempOf := map[uint64]int{}
	for i, id := range ids {
		tempOf[TempIDFor(id, 7, res.IDSpace)] = i
	}
	checked := 0
	for _, ident := range res.Identified {
		i, known := tempOf[ident.TempID]
		if !known {
			t.Errorf("spurious identification: temp id %d", ident.TempID)
			continue
		}
		trueTap := ch.Taps[i]
		relErr := cmplx.Abs(ident.Tap-trueTap) / cmplx.Abs(trueTap)
		if relErr > 0.25 {
			t.Errorf("tag %d tap estimate off by %.0f%%", i, relErr*100)
		}
		checked++
	}
	if checked < k-1 {
		t.Fatalf("only %d/%d taps could be checked", checked, k)
	}
}

func TestRunSlotBudgetIndependentOfPopulation(t *testing.T) {
	// The whole point of §5.1: cost scales with K, not N. K=8 tags from
	// a 2^40 population must finish in a few hundred slots.
	src := prng.NewSource(4)
	k := 8
	ids := activeSet(src, k)
	ch := channel.NewFromSNRBand(k, 15, 25, src)
	res, err := Run(Config{Salt: 1}, ids, ch, src.Fork(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSlots > 600 {
		t.Fatalf("identification took %d slots for K=8 — should be O(K log K + cK + K log a)", res.TotalSlots)
	}
	if res.TotalSlots != res.KEstSlots+res.BucketSlots+res.CSSlots {
		t.Fatal("slot accounting inconsistent")
	}
}

func TestRunEmptyNetwork(t *testing.T) {
	src := prng.NewSource(5)
	ch := channel.NewExact(nil, 1)
	res, err := Run(Config{Salt: 2}, nil, ch, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Identified) != 0 {
		t.Fatalf("empty network identified %d tags", len(res.Identified))
	}
}

func TestRunMismatchedChannel(t *testing.T) {
	src := prng.NewSource(6)
	ch := channel.NewUniform(3, 20, src)
	if _, err := Run(Config{}, activeSet(src, 2), ch, src); err == nil {
		t.Fatal("expected tap-count mismatch error")
	}
}

func TestRunDeterministic(t *testing.T) {
	src := prng.NewSource(7)
	k := 6
	ids := activeSet(src, k)
	ch := channel.NewFromSNRBand(k, 15, 25, src)
	a, err := Run(Config{Salt: 3}, ids, ch, prng.NewSource(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Salt: 3}, ids, ch, prng.NewSource(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalSlots != b.TotalSlots || len(a.Identified) != len(b.Identified) {
		t.Fatal("identification is not deterministic under fixed seeds")
	}
}

func TestTempIDsUniformInSpace(t *testing.T) {
	const space = 1000
	counts := make([]int, 10)
	for id := uint64(0); id < 20000; id++ {
		tid := TempIDFor(id, 5, space)
		if tid >= space {
			t.Fatalf("temp id %d outside space %d", tid, space)
		}
		counts[tid/(space/10)]++
	}
	for d, c := range counts {
		if c < 1600 || c > 2400 {
			t.Errorf("decile %d count %d deviates from 2000", d, c)
		}
	}
}

func TestPatternBitSharedAndFair(t *testing.T) {
	ones := 0
	const rows = 10048
	seed := PatternSeed(42, 7)
	for w := 0; w < rows/64; w++ {
		a := PatternWord(seed, w)
		if a != PatternWord(PatternSeed(42, 7), w) {
			t.Fatal("pattern word not deterministic")
		}
		ones += mbits.OnesCount64(a)
	}
	frac := float64(ones) / rows
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("pattern density %f, want ~0.5", frac)
	}
}

func TestMatchDetectsDuplicates(t *testing.T) {
	// Force two tags onto the same temp id by brute-force search.
	res := &Result{IDSpace: 4, salt: 0}
	var ids []uint64
	seen := map[uint64][]uint64{}
	for id := uint64(0); id < 200 && len(ids) < 2; id++ {
		tid := TempIDFor(id, 0, 4)
		seen[tid] = append(seen[tid], id)
		if len(seen[tid]) == 2 {
			ids = seen[tid]
		}
	}
	if len(ids) != 2 {
		t.Fatal("could not construct a duplicate pair")
	}
	identified, dups := Match(res, ids)
	if dups != 2 {
		t.Fatalf("expected 2 duplicate tags, got %d", dups)
	}
	if identified[0] || identified[1] {
		t.Fatal("duplicate tags cannot be identified")
	}
}

func TestToyOption1FailureProbability(t *testing.T) {
	if got := ToyOption1FailureProbability(); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Fatalf("option 1 failure probability %f, want 1/3", got)
	}
}

func TestToyOption2FailureProbability(t *testing.T) {
	if got := ToyOption2FailureProbability(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("option 2 failure probability %f, want 1/4", got)
	}
}

func TestToyCollisionTableMatchesPaper(t *testing.T) {
	// Table 2 of the paper, row/column order 011,100,101,111.
	want := [4][4]string{
		{"022", "111", "112", "122"},
		{"111", "200", "201", "211"},
		{"112", "201", "202", "212"},
		{"122", "211", "212", "222"},
	}
	got := ToyCollisionTable()
	if got != want {
		t.Fatalf("Table 2 mismatch:\n got %v\nwant %v", got, want)
	}
}

func BenchmarkRunK16(b *testing.B) {
	src := prng.NewSource(8)
	k := 16
	ids := activeSet(src, k)
	ch := channel.NewFromSNRBand(k, 15, 25, src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Salt: uint64(i)}, ids, ch, prng.NewSource(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunHeadlineBand times twelve warm identification sessions
// on one reused arena, the way the simulator calls Run: K = 4..15 at
// the headline SNR band (14–30 dB).
func BenchmarkRunHeadlineBand(b *testing.B) {
	sc := scratch.New()
	type session struct {
		ids  []uint64
		ch   *channel.Model
		salt uint64
		seed uint64
	}
	var sessions []session
	for k := 4; k < 16; k++ {
		src := prng.NewSource(prng.Mix3(0, uint64(k), math.Float64bits(14)))
		ids := activeSet(src, k)
		ch := channel.NewFromSNRBand(k, 14, 30, src)
		sessions = append(sessions, session{ids: ids, ch: ch, salt: src.Uint64(), seed: src.Uint64()})
	}
	run := func() {
		for _, s := range sessions {
			if _, err := Run(Config{Salt: s.salt, Scratch: sc}, s.ids, s.ch, prng.NewSource(s.seed)); err != nil {
				b.Fatal(err)
			}
			sc.Reset()
		}
	}
	run() // warm the arena and the stage-A rows
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// TestRunSteadyStateAllocBound pins a warm session's allocations on a
// reused arena at K = 16: every working buffer of the three stages,
// stage B's candidate and temporary-id lists included, comes from the
// arena, so only the escaping results touch the heap — the Result and
// its Identified list, the pursuit's Result with its support and
// coefficient lists, and the pattern matrix's header (18 allocations at
// this session).
func TestRunSteadyStateAllocBound(t *testing.T) {
	src := prng.NewSource(16)
	ids := activeSet(src, 16)
	ch := channel.NewFromSNRBand(16, 14, 30, src)
	sc := scratch.New()
	run := func() {
		if _, err := Run(Config{Salt: 9, Scratch: sc}, ids, ch, prng.NewSource(3)); err != nil {
			t.Fatal(err)
		}
		sc.Reset()
	}
	run() // warm the arena and the stage-A rows
	if allocs := testing.AllocsPerRun(10, run); allocs > 20 {
		t.Fatalf("warm Run allocates %v times, budget 20", allocs)
	}
}
