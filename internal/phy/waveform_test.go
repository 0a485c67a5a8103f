package phy

import (
	"math"
	"testing"

	"repro/internal/bits"
	"repro/internal/prng"
)

func TestSynthesizeSingleTagTwoLevels(t *testing.T) {
	// Fig. 2(a): one tag's OOK transmission exhibits exactly two
	// magnitude levels (carrier alone, carrier + tap).
	cap := DefaultCapture()
	cap.NoisePower = 0
	tag := TagSignal{
		Chips:  OOKChips(bits.Vector{true, false, true, true, false}),
		H:      complex(0.2, 0.05),
		Timing: Ideal,
	}
	samples := cap.Synthesize([]TagSignal{tag}, len(tag.Chips), prng.NewSource(1))
	levels := DistinctLevels(Magnitudes(samples), 0.02)
	if levels != 2 {
		t.Fatalf("single tag produced %d levels, want 2", levels)
	}
}

func TestSynthesizeTwoTagFourLevels(t *testing.T) {
	// Fig. 2(b): two colliding tags produce four levels ("00","01","10","11").
	cap := DefaultCapture()
	cap.NoisePower = 0
	// Chip patterns chosen so all four joint states occur.
	a := TagSignal{Chips: []bool{false, false, true, true}, H: complex(0.15, 0.02), Timing: Ideal}
	b := TagSignal{Chips: []bool{false, true, false, true}, H: complex(0.08, -0.03), Timing: Ideal}
	samples := cap.Synthesize([]TagSignal{a, b}, 4, prng.NewSource(2))
	levels := DistinctLevels(Magnitudes(samples), 0.01)
	if levels != 4 {
		t.Fatalf("two-tag collision produced %d levels, want 4", levels)
	}
}

func TestSynthesizeCarrierPedestal(t *testing.T) {
	cap := DefaultCapture()
	cap.NoisePower = 0
	silent := TagSignal{Chips: []bool{false, false}, H: 1, Timing: Ideal}
	samples := cap.Synthesize([]TagSignal{silent}, 2, prng.NewSource(3))
	for _, s := range samples {
		if s != cap.Carrier {
			t.Fatalf("silent capture should read the carrier, got %v", s)
		}
	}
}

func TestRemoveCarrierThenChipObservations(t *testing.T) {
	cap := DefaultCapture()
	cap.NoisePower = 0
	h := complex(0.2, 0.1)
	tag := TagSignal{Chips: []bool{true, false, true}, H: h, Timing: Ideal}
	samples := cap.Synthesize([]TagSignal{tag}, 3, prng.NewSource(4))
	for i := range samples {
		samples[i] -= cap.Carrier
	}
	obs := cap.ChipObservations(samples)
	if len(obs) != 3 {
		t.Fatalf("got %d chip observations, want 3", len(obs))
	}
	wants := []complex128{h, 0, h}
	for i, w := range wants {
		d := obs[i] - w
		if math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("chip %d observation %v, want %v", i, obs[i], w)
		}
	}
}

func TestSynthesizeOffsetSmearsBoundary(t *testing.T) {
	// A fractional offset makes some samples of a chip interval read the
	// neighboring chip: the root cause of CDMA's orthogonality loss.
	cap := Capture{SamplesPerChip: 10, Carrier: 0, NoisePower: 0}
	tag := TagSignal{
		Chips:  []bool{true, false},
		H:      1,
		Timing: Timing{InitialOffsetBits: 0.35},
	}
	samples := cap.Synthesize([]TagSignal{tag}, 2, prng.NewSource(5))
	obs := cap.ChipObservations(samples)
	// First chip interval: tag silent for ~3.5 samples then reflecting.
	if real(obs[0]) < 0.4 || real(obs[0]) > 0.8 {
		t.Fatalf("smeared first chip observation %v, want ~0.65", obs[0])
	}
	// Second interval catches the tail of chip 0.
	if real(obs[1]) < 0.2 || real(obs[1]) > 0.5 {
		t.Fatalf("smeared second chip observation %v, want ~0.35", obs[1])
	}
}

func TestSynthesizePanicsWithoutOversampling(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Capture{}.Synthesize(nil, 1, prng.NewSource(1))
}

func TestDistinctLevels(t *testing.T) {
	if DistinctLevels(nil, 0.1) != 0 {
		t.Fatal("empty input should report 0 levels")
	}
	if got := DistinctLevels([]float64{1, 1.001, 2, 2.002, 3}, 0.05); got != 3 {
		t.Fatalf("got %d levels, want 3", got)
	}
}

func TestConstellationPointsCounts(t *testing.T) {
	// Fig. 3: one tag -> 2 points, two tags -> 4 points, three -> 8.
	for k := 1; k <= 3; k++ {
		taps := make([]complex128, k)
		for i := range taps {
			taps[i] = complex(float64(i+1)*0.3, float64(i)*0.1)
		}
		pts := ConstellationPoints(taps, complex(1, -1))
		if len(pts) != 1<<uint(k) {
			t.Fatalf("k=%d: %d points, want %d", k, len(pts), 1<<uint(k))
		}
	}
}

func TestConstellationIncludesExtremes(t *testing.T) {
	taps := []complex128{complex(0.3, 0), complex(0, 0.2)}
	carrier := complex(1, 0)
	pts := ConstellationPoints(taps, carrier)
	foundCarrier, foundAll := false, false
	all := carrier + taps[0] + taps[1]
	for _, p := range pts {
		if p == carrier {
			foundCarrier = true
		}
		if p == all {
			foundAll = true
		}
	}
	if !foundCarrier || !foundAll {
		t.Fatal("constellation missing the all-silent or all-reflect point")
	}
}

func TestMinConstellationDistanceShrinksWithMoreTags(t *testing.T) {
	src := prng.NewSource(6)
	taps := make([]complex128, 4)
	for i := range taps {
		taps[i] = complex(src.Float64()*0.4+0.1, src.Float64()*0.4-0.2)
	}
	d2 := MinConstellationDistance(ConstellationPoints(taps[:2], 0))
	d4 := MinConstellationDistance(ConstellationPoints(taps, 0))
	if d4 >= d2 {
		t.Fatalf("denser constellation should have smaller min distance: %f vs %f", d4, d2)
	}
}

func TestSynthesizedDriftMatchesFig8(t *testing.T) {
	// Two tags transmitting the same data: without drift correction the
	// observed chip values diverge late in the trace; with correction
	// they stay aligned (Fig. 8).
	src := prng.NewSource(7)
	data := bits.Random(src, 160)
	chips := OOKChips(data)
	cap := Capture{SamplesPerChip: 10, Carrier: 0, NoisePower: 0}
	h := complex(0.5, 0)

	run := func(drift Timing) float64 {
		tags := []TagSignal{
			{Chips: chips, H: h, Timing: Ideal},
			{Chips: chips, H: h, Timing: drift},
		}
		samples := cap.Synthesize(tags, len(chips), prng.NewSource(8))
		obs := cap.ChipObservations(samples)
		// Perfectly aligned identical data means every chip reads 0 or
		// 2h; misalignment produces intermediate values. Score the
		// fraction of intermediate observations in the last quarter.
		bad := 0
		lastQ := obs[3*len(obs)/4:]
		for _, o := range lastQ {
			m := math.Hypot(real(o), imag(o))
			if m > 0.2 && m < 0.8 {
				bad++
			}
		}
		return float64(bad) / float64(len(lastQ))
	}

	uncorrected := run(Timing{DriftPPM: 3000})
	corrected := run(Timing{DriftPPM: 3000}.CorrectDrift())
	if uncorrected < 0.1 {
		t.Fatalf("uncorrected drift should smear late chips, smear=%f", uncorrected)
	}
	if corrected > uncorrected/4 {
		t.Fatalf("corrected drift should stay aligned: %f vs %f", corrected, uncorrected)
	}
}
