package channel

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/prng"
)

func TestSymbolSuperposition(t *testing.T) {
	m := NewExact([]complex128{1, 2i, complex(1, 1)}, 0)
	noise := prng.NewSource(1)
	got := m.Symbol([]bool{true, false, true}, noise)
	want := complex(2, 1)
	if cmplx.Abs(got-want) > 1e-12 {
		t.Fatalf("Symbol = %v, want %v", got, want)
	}
	if m.Symbol([]bool{false, false, false}, noise) != 0 {
		t.Fatal("all-silent slot must be zero without noise")
	}
}

func TestSymbolPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewExact([]complex128{1}, 0).Symbol([]bool{true, true}, prng.NewSource(1))
}

func TestNoiselessMatchesZeroNoiseSymbol(t *testing.T) {
	src := prng.NewSource(2)
	m := NewUniform(5, 20, src)
	m.NoisePower = 0
	noise := prng.NewSource(3)
	for trial := 0; trial < 100; trial++ {
		active := make([]bool, 5)
		for i := range active {
			active[i] = src.Bool()
		}
		if m.Symbol(active, noise) != m.Noiseless(active) {
			t.Fatal("Noiseless and zero-noise Symbol disagree")
		}
	}
}

func TestNoiseStatistics(t *testing.T) {
	m := NewExact([]complex128{0}, 4) // noise power 4, silent tag
	noise := prng.NewSource(4)
	const n = 50000
	var power float64
	for i := 0; i < n; i++ {
		y := m.Symbol([]bool{false}, noise)
		power += real(y)*real(y) + imag(y)*imag(y)
	}
	avg := power / n
	if math.Abs(avg-4) > 0.15 {
		t.Fatalf("noise power measured %f, want 4", avg)
	}
}

func TestSNRdBMatchesConstruction(t *testing.T) {
	src := prng.NewSource(5)
	m := NewUniform(8, 17.5, src)
	for i := 0; i < m.K(); i++ {
		if math.Abs(m.SNRdB(i)-17.5) > 1e-9 {
			t.Fatalf("tag %d SNR %f, want 17.5", i, m.SNRdB(i))
		}
	}
}

func TestNewFromSNRBandWithinBand(t *testing.T) {
	src := prng.NewSource(6)
	m := NewFromSNRBand(100, 6, 14, src)
	lo, hi := m.MinMaxSNRdB()
	if lo < 6-1e-9 || hi > 14+1e-9 {
		t.Fatalf("band [6,14] violated: [%f, %f]", lo, hi)
	}
	// With 100 draws the band should be reasonably filled.
	if hi-lo < 4 {
		t.Fatalf("band hardly filled: [%f, %f]", lo, hi)
	}
}

func TestNewFromSNRBandSwappedBounds(t *testing.T) {
	src := prng.NewSource(7)
	m := NewFromSNRBand(10, 14, 6, src)
	lo, hi := m.MinMaxSNRdB()
	if lo < 6-1e-9 || hi > 14+1e-9 {
		t.Fatalf("swapped bounds mishandled: [%f, %f]", lo, hi)
	}
}

// TestNearFarRatio pins MinMaxSNRdB on exact taps: the near-far
// disparity CDMA suffers from (§6d) is hi − lo.
func TestNearFarRatio(t *testing.T) {
	m := NewExact([]complex128{10, 1}, 1)
	if lo, hi := m.MinMaxSNRdB(); math.Abs(lo) > 1e-9 || math.Abs(hi-20) > 1e-9 {
		t.Fatalf("SNR range [%f, %f] dB, want [0, 20]", lo, hi)
	}
}

func TestNewExactCopies(t *testing.T) {
	taps := []complex128{1, 2}
	m := NewExact(taps, 1)
	taps[0] = 99
	if m.Taps[0] != 1 {
		t.Fatal("NewExact aliased the caller's slice")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	a := NewFromSNRBand(10, 14, 30, prng.NewSource(42))
	b := NewFromSNRBand(10, 14, 30, prng.NewSource(42))
	for i := range a.Taps {
		if a.Taps[i] != b.Taps[i] {
			t.Fatal("SNR-band generation not deterministic")
		}
	}
}

func TestUniformPhaseDiversity(t *testing.T) {
	// Same-SNR taps must still differ in phase, otherwise two-tag
	// collisions would degenerate to a 3-point constellation.
	src := prng.NewSource(11)
	m := NewUniform(50, 20, src)
	distinct := 0
	for i := 1; i < m.K(); i++ {
		if cmplx.Abs(m.Taps[i]-m.Taps[0]) > 1e-6 {
			distinct++
		}
	}
	if distinct != m.K()-1 {
		t.Fatalf("only %d/%d taps distinct", distinct, m.K()-1)
	}
}

func TestSlotNoisePowerAGC(t *testing.T) {
	m := NewExact([]complex128{10, 1}, 1)
	m.AGCNoiseFraction = 0.01
	// Silent slot: just the thermal floor.
	if got := m.SlotNoisePower([]bool{false, false}); got != 1 {
		t.Fatalf("silent slot noise %f, want 1", got)
	}
	// Strong tag on the air raises the floor by 0.01·100.
	if got := m.SlotNoisePower([]bool{true, false}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("strong-tag slot noise %f, want 2", got)
	}
	// Both: 1 + 1 + 0.01.
	if got := m.SlotNoisePower([]bool{true, true}); math.Abs(got-2.01) > 1e-12 {
		t.Fatalf("both-tags slot noise %f, want 2.01", got)
	}
	// Disabled by default.
	m2 := NewExact([]complex128{10}, 1)
	if got := m2.SlotNoisePower([]bool{true}); got != 1 {
		t.Fatalf("AGC off should leave the floor alone, got %f", got)
	}
}
