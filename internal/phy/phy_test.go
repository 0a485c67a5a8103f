package phy

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bits"
	"repro/internal/prng"
)

func TestBitDuration(t *testing.T) {
	if got := BitDuration(80_000); math.Abs(got-12.5) > 1e-12 {
		t.Fatalf("bit duration at 80 kbps = %v µs, want 12.5", got)
	}
	if got := BitDuration(64_000); math.Abs(got-15.625) > 1e-12 {
		t.Fatalf("bit duration at 64 kbps = %v µs, want 15.625", got)
	}
}

func TestTimingChipAtIdeal(t *testing.T) {
	chips := []bool{true, false, true}
	for i, want := range chips {
		if got := Ideal.ChipAt(chips, float64(i)+0.5); got != want {
			t.Fatalf("chip %d: got %v want %v", i, got, want)
		}
	}
	if Ideal.ChipAt(chips, -0.5) || Ideal.ChipAt(chips, 3.5) {
		t.Fatal("out-of-range times must read silent")
	}
}

func TestTimingOffsetShiftsBoundaries(t *testing.T) {
	chips := []bool{true, false}
	tm := Timing{InitialOffsetBits: 0.25}
	// At t=0.1 the offset tag hasn't started yet.
	if tm.ChipAt(chips, 0.1) {
		t.Fatal("tag reflected before its offset start")
	}
	// At t=1.1 the tag is still in its first chip (local time 0.85).
	if !tm.ChipAt(chips, 1.1) {
		t.Fatal("offset tag should still be in chip 0 at t=1.1")
	}
}

// millerEncode encodes v into a fresh chip stream.
func millerEncode(v bits.Vector) []bool {
	return MillerEncodeInto(v, make([]bool, len(v)*ChipsPerBit))
}

func TestCorrectDriftShrinksMisalignment(t *testing.T) {
	tm := Timing{DriftPPM: 3000}
	corrected := tm.CorrectDrift()
	// With no initial offset a boundary's misalignment after t chips is
	// t·DriftPPM·1e-6, so it shrinks by the drift's own ratio.
	if before, after := math.Abs(tm.DriftPPM), math.Abs(corrected.DriftPPM); after > before/50 {
		t.Fatalf("drift correction too weak: %f -> %f ppm", before, after)
	}
	if corrected.InitialOffsetBits != tm.InitialOffsetBits {
		t.Fatal("drift correction must not touch the initial offset")
	}
}

func TestSyncOffsetModelPercentiles(t *testing.T) {
	src := prng.NewSource(1)
	for _, m := range []SyncOffsetModel{MooOffsets, CommercialOffsets} {
		const n = 20000
		draws := make([]float64, n)
		for i := range draws {
			draws[i] = m.Draw(src)
			if draws[i] < 0 || draws[i] > m.MaxMicros {
				t.Fatalf("draw %f outside [0, %f]", draws[i], m.MaxMicros)
			}
		}
		sort.Float64s(draws)
		p90 := draws[int(0.9*n)]
		if math.Abs(p90-m.P90Micros) > 0.05 {
			t.Errorf("90th percentile %f, want ~%f", p90, m.P90Micros)
		}
	}
}

func TestDrawTimingBounds(t *testing.T) {
	src := prng.NewSource(2)
	for i := 0; i < 1000; i++ {
		tm := MooOffsets.DrawTiming(DefaultBitRate, 3000, src)
		if tm.InitialOffsetBits < 0 || tm.InitialOffsetBits > 1.0/12.5 {
			t.Fatalf("offset %f bits outside [0, 0.08]", tm.InitialOffsetBits)
		}
		if tm.DriftPPM < -3000 || tm.DriftPPM > 3000 {
			t.Fatalf("drift %f outside ±3000 ppm", tm.DriftPPM)
		}
	}
}

func TestMillerEncodeChipCount(t *testing.T) {
	src := prng.NewSource(3)
	for trial := 0; trial < 20; trial++ {
		n := src.IntN(50) + 1
		v := bits.Random(src, n)
		chips := millerEncode(v)
		if len(chips) != n*ChipsPerBit {
			t.Fatalf("%d bits -> %d chips, want %d", n, len(chips), n*ChipsPerBit)
		}
	}
}

func TestMillerSubcarrierAlwaysToggling(t *testing.T) {
	// Miller-M keeps the subcarrier running: within a bit, adjacent
	// chips always differ except possibly at the single mid-bit
	// inversion of a data-1 (where the baseband flip cancels the
	// subcarrier flip).
	v := bits.Vector{true, false, false, true, true, false}
	chips := millerEncode(v)
	for b := 0; b < len(v); b++ {
		same := 0
		for c := 1; c < ChipsPerBit; c++ {
			if chips[b*ChipsPerBit+c] == chips[b*ChipsPerBit+c-1] {
				same++
			}
		}
		wantSame := 0
		if v[b] {
			wantSame = 1
		}
		if same != wantSame {
			t.Fatalf("bit %d (%v): %d non-toggling chip boundaries, want %d", b, v[b], same, wantSame)
		}
	}
}

func TestMillerSwitchingIsEightfoldOOK(t *testing.T) {
	// The energy argument of Fig. 13: Miller-4 switches the antenna at
	// ~8x the rate of plain OOK for the same data.
	src := prng.NewSource(4)
	v := bits.Random(src, 96)
	miller := SwitchCount(millerEncode(v))
	ook := SwitchCount(OOKChips(v))
	if ratio := float64(miller) / float64(ook); ratio < 5 || ratio > 17 {
		t.Fatalf("Miller/OOK switch ratio %f, expected roughly 8 (5..17)", ratio)
	}
}

func TestMillerDecodeRoundTripClean(t *testing.T) {
	src := prng.NewSource(5)
	h := complex(0.8, 0.3)
	for trial := 0; trial < 50; trial++ {
		v := bits.Random(src, 32)
		chips := millerEncode(v)
		rx := make([]complex128, len(chips))
		for i, c := range chips {
			if c {
				rx[i] = h
			}
		}
		got := MillerDecoder{H: h}.Decode(rx, len(v))
		if !got.Equal(v) {
			t.Fatalf("trial %d: clean round trip failed\n tx %s\n rx %s", trial, v, got)
		}
	}
}

func TestMillerDecodeWithNoise(t *testing.T) {
	src := prng.NewSource(6)
	noise := prng.NewSource(7)
	h := complex(1, 0)
	sigma := 0.35 // per-chip; matched filtering over 8 chips rescues this
	errors := 0
	total := 0
	for trial := 0; trial < 30; trial++ {
		v := bits.Random(src, 64)
		chips := millerEncode(v)
		rx := make([]complex128, len(chips))
		for i, c := range chips {
			if c {
				rx[i] = h
			}
			rx[i] += noise.ComplexNorm() * complex(sigma, 0)
		}
		got := MillerDecoder{H: h}.Decode(rx, len(v))
		errors += got.HammingDistance(v)
		total += len(v)
	}
	if frac := float64(errors) / float64(total); frac > 0.01 {
		t.Fatalf("Miller BER %f at chip sigma %.2f, want <1%%", frac, sigma)
	}
}

func TestMillerDecodeTruncatedStream(t *testing.T) {
	v := bits.Vector{true, false, true}
	chips := millerEncode(v)
	rx := make([]complex128, len(chips)-ChipsPerBit) // drop last bit
	for i := range rx {
		if chips[i] {
			rx[i] = 1
		}
	}
	got := MillerDecoder{H: 1}.Decode(rx, 3)
	if len(got) != 2 {
		t.Fatalf("truncated decode returned %d bits, want 2", len(got))
	}
}

func TestIntegrateAndDumpReducesNoise(t *testing.T) {
	noise := prng.NewSource(8)
	const n = 20000
	const group = 10
	raw := make([]complex128, n)
	for i := range raw {
		raw[i] = noise.ComplexNorm()
	}
	dumped := IntegrateAndDump(raw, group)
	var p float64
	for _, s := range dumped {
		p += real(s)*real(s) + imag(s)*imag(s)
	}
	avg := p / float64(len(dumped))
	if avg > 1.0/group*1.3 || avg < 1.0/group*0.7 {
		t.Fatalf("integrated noise power %f, want ~%f", avg, 1.0/group)
	}
}

func TestIntegrateAndDumpPreservesSignal(t *testing.T) {
	samples := []complex128{1, 1, 1, 1, 2, 2, 2, 2}
	out := IntegrateAndDump(samples, 4)
	if len(out) != 2 || out[0] != 1 || out[1] != 2 {
		t.Fatalf("IntegrateAndDump wrong: %v", out)
	}
}

func TestIntegrateAndDumpPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	IntegrateAndDump(nil, 0)
}

func TestMillerEncodeQuickProperties(t *testing.T) {
	// Property: encoding is deterministic, produces exactly
	// ChipsPerBit·n chips, and two different bit vectors of equal
	// length never produce the same chip stream (the line code is
	// injective given a fixed starting state).
	f := func(raw []bool, raw2 []bool) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		v := bits.Vector(raw)
		a := millerEncode(v)
		b := millerEncode(v)
		if len(a) != len(v)*ChipsPerBit {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		if len(raw2) == len(raw) {
			w := bits.Vector(raw2)
			if !w.Equal(v) {
				c := millerEncode(w)
				same := true
				for i := range a {
					if a[i] != c[i] {
						same = false
						break
					}
				}
				if same {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTimingChipAtQuick(t *testing.T) {
	// ChipAt never panics and reads silent outside the stream, for any
	// timing parameters.
	f := func(offRaw, driftRaw uint16, tRaw int16, n uint8) bool {
		chips := make([]bool, int(n%32)+1)
		for i := range chips {
			chips[i] = i%2 == 0
		}
		tm := Timing{
			InitialOffsetBits: float64(offRaw%200) / 100,
			DriftPPM:          float64(driftRaw%10000) - 5000,
		}
		tVal := float64(tRaw) / 16
		got := tm.ChipAt(chips, tVal)
		local := (tVal - tm.InitialOffsetBits) * (1 + tm.DriftPPM*1e-6)
		if local < 0 || int(local) >= len(chips) {
			return !got || local >= 0 // outside must be silent unless boundary rounding
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
