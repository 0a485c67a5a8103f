package ratedapt

import (
	"reflect"
	"testing"

	"repro/internal/bits"
	"repro/internal/bp"
	"repro/internal/channel"
	"repro/internal/prng"
	"repro/internal/scratch"
)

func scratchTestSetup(k int, seed uint64) (Config, []bits.Vector, *channel.Model) {
	setup := prng.NewSource(seed)
	msgs := make([]bits.Vector, k)
	for i := range msgs {
		msgs[i] = bits.Random(setup, 32)
	}
	ch := channel.NewFromSNRBand(k, 14, 30, setup)
	ch.AGCNoiseFraction = 0.002
	seeds := make([]uint64, k)
	for i := range seeds {
		seeds[i] = setup.Uint64()
	}
	cfg := Config{
		Seeds:       seeds,
		SessionSalt: setup.Uint64(),
		CRC:         bits.CRC5,
		Restarts:    2,
		MaxSlots:    40 * k,
	}
	return cfg, msgs, ch
}

// TestTransferScratchMatchesHeapTransfer pins the golden-determinism
// property of the arena refactor end to end: a transfer decoded on a
// (deliberately dirtied) scratch arena returns a Result deeply equal to
// the plain heap transfer for the same seeds.
func TestTransferScratchMatchesHeapTransfer(t *testing.T) {
	for _, k := range []int{1, 4, 9} {
		cfg, msgs, ch := scratchTestSetup(k, 0xBEEF+uint64(k))
		plain, err := Transfer(cfg, msgs, ch, prng.NewSource(1), prng.NewSource(2))
		if err != nil {
			t.Fatal(err)
		}

		sc := scratch.New()
		// Warm the arena with a different-shaped transfer first so any
		// stale-state leak between transfers would surface.
		wcfg, wmsgs, wch := scratchTestSetup(k+2, 0xD00D)
		wcfg.Scratch = sc
		if _, err := Transfer(wcfg, wmsgs, wch, prng.NewSource(3), prng.NewSource(4)); err != nil {
			t.Fatal(err)
		}
		sc.Reset()

		cfg.Scratch = sc
		arena, err := Transfer(cfg, msgs, ch, prng.NewSource(1), prng.NewSource(2))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, arena) {
			t.Fatalf("K=%d: scratch transfer diverged from heap transfer:\nheap:  %+v\narena: %+v", k, plain, arena)
		}
	}
}

// TestTransferSampledScratchMatchesHeap covers the sample-level air: the
// waveform staging buffers must not change a single observation.
func TestTransferSampledScratchMatchesHeap(t *testing.T) {
	cfg, msgs, ch := scratchTestSetup(4, 0xFEED)
	sampled := SampledConfig{Config: cfg}
	plain, err := TransferSampled(sampled, msgs, ch, prng.NewSource(5), prng.NewSource(6))
	if err != nil {
		t.Fatal(err)
	}
	sc := scratch.New()
	sampled.Scratch = sc
	arena, err := TransferSampled(sampled, msgs, ch, prng.NewSource(5), prng.NewSource(6))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, arena) {
		t.Fatalf("scratch sampled transfer diverged:\nheap:  %+v\narena: %+v", plain, arena)
	}
}

// TestTransferSteadyStateAllocBound pins the whole-transfer allocation
// budget on a warm arena and a warm session. A transfer still
// heap-allocates its escaping Result (frames, progress, verification
// state) and the trial's PRNG sources, but the per-slot decode loop
// itself must stay out of the allocator: the budget below is ~2
// allocations per tag plus a fixed overhead, orders of magnitude under
// the thousands of allocations per transfer the pre-arena decoder
// performed. The session is caller-owned, as the simulator's trial
// workers own theirs: a pooled one would make the count depend on
// sync.Pool, which under the race detector drops a random share of Puts,
// so a dropped session re-allocated every buffer and the count wandered
// over the budget from run to run.
func TestTransferSteadyStateAllocBound(t *testing.T) {
	const k = 6
	cfg, msgs, ch := scratchTestSetup(k, 0xCAFE)
	sc := scratch.New()
	cfg.Scratch = sc
	cfg.Session = bp.NewSession()
	run := func() {
		if _, err := Transfer(cfg, msgs, ch, prng.NewSource(1), prng.NewSource(2)); err != nil {
			t.Fatal(err)
		}
		sc.Reset()
	}
	run() // warm-up
	allocs := testing.AllocsPerRun(10, run)
	if budget := float64(40 + 4*k); allocs > budget {
		t.Fatalf("steady-state transfer allocates %v times, budget %v", allocs, budget)
	}
}

// TestTransferSameSeedDeterminism runs the same configuration twice —
// second time on the warm session and arena of the first — and demands
// byte-identical results: reuse must be invisible.
func TestTransferSameSeedDeterminism(t *testing.T) {
	cfg, msgs, ch := scratchTestSetup(8, 0xDE7)
	sess := bp.NewSession()
	sc := scratch.New()
	cfg.Session = sess
	cfg.Scratch = sc

	a, err := Transfer(cfg, msgs, ch, prng.NewSource(7), prng.NewSource(8))
	if err != nil {
		t.Fatal(err)
	}
	sc.Reset()
	b, err := Transfer(cfg, msgs, ch, prng.NewSource(7), prng.NewSource(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed transfer not reproducible:\nfirst:  %+v\nsecond: %+v", a, b)
	}
}
