package channel

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/prng"
)

func TestStaticProcess(t *testing.T) {
	m := NewUniform(4, 20, prng.NewSource(1))
	p := NewStatic(m)
	if !p.Static() || p.K() != 4 {
		t.Fatalf("Static()=%v K=%d", p.Static(), p.K())
	}
	if p.ModelAt(1) != m || p.ModelAt(100) != m {
		t.Fatal("StaticProcess does not return the wrapped model")
	}
}

// TestBlockFadingBlocks checks the defining block structure: taps are
// frozen within a block, redrawn across blocks, every draw lands in the
// configured SNR band, and the process is a pure function of its seed —
// two instances agree, and jumping straight to a late slot gives the
// same taps as walking there.
func TestBlockFadingBlocks(t *testing.T) {
	const (
		k        = 6
		blockLen = 8
		lo, hi   = 10.0, 24.0
	)
	p := NewBlockFading(k, lo, hi, blockLen, 0.002, 0x5EED)
	if p.Static() || p.K() != k {
		t.Fatalf("Static()=%v K=%d", p.Static(), p.K())
	}
	first := append([]complex128(nil), p.ModelAt(1).Taps...)
	for slot := 2; slot <= blockLen; slot++ {
		for i, h := range p.ModelAt(slot).Taps {
			if h != first[i] {
				t.Fatalf("slot %d tag %d: tap moved within a block", slot, i)
			}
		}
	}
	second := append([]complex128(nil), p.ModelAt(blockLen+1).Taps...)
	same := 0
	for i := range second {
		if second[i] == first[i] {
			same++
		}
	}
	if same == k {
		t.Fatal("block boundary did not redraw any tap")
	}
	m := p.ModelAt(blockLen + 1)
	for i := range m.Taps {
		if s := m.SNRdB(i); s < lo-1e-9 || s > hi+1e-9 {
			t.Fatalf("block-2 tag %d SNR %.2f escapes the band [%v, %v]", i, s, lo, hi)
		}
	}
	if m.AGCNoiseFraction != 0.002 || m.NoisePower != 1 {
		t.Fatalf("model impairments not carried: agc=%v n0=%v", m.AGCNoiseFraction, m.NoisePower)
	}

	// Addressability: a fresh instance queried directly at a late slot
	// must agree with the walked instance at the same slot.
	q := NewBlockFading(k, lo, hi, blockLen, 0.002, 0x5EED)
	jumped := q.ModelAt(5*blockLen + 3).Taps
	walked := p
	var wTaps []complex128
	for slot := blockLen + 2; slot <= 5*blockLen+3; slot++ {
		wTaps = walked.ModelAt(slot).Taps
	}
	for i := range jumped {
		if jumped[i] != wTaps[i] {
			t.Fatalf("tag %d: jumped tap %v != walked tap %v", i, jumped[i], wTaps[i])
		}
	}
}

// TestGaussMarkovDeterminism checks that the recursion is a pure
// function of (initial model, rho, seed): two instances walked
// differently agree slot for slot, ρ=1 tags are frozen exactly, and
// re-querying a slot does not advance the state.
func TestGaussMarkovDeterminism(t *testing.T) {
	const k = 5
	rho := []float64{0.9, 0.99, 1.0, 0.5, 0.97}
	mk := func() *GaussMarkov {
		init := NewFromSNRBand(k, 12, 26, prng.NewSource(0xF00))
		return NewGaussMarkov(init, rho, 0xD0B)
	}
	a, b := mk(), mk()
	frozen := a.ModelAt(1).Taps[2]
	var at []complex128
	for slot := 1; slot <= 40; slot++ {
		at = a.ModelAt(slot).Taps
		at = append([]complex128(nil), at...)
		_ = a.ModelAt(slot) // idempotent re-query
		bt := b.ModelAt(slot).Taps
		for i := range at {
			if at[i] != bt[i] {
				t.Fatalf("slot %d tag %d: %v != %v", slot, i, at[i], bt[i])
			}
		}
		if at[2] != frozen {
			t.Fatalf("slot %d: rho=1 tag moved from %v to %v", slot, frozen, at[2])
		}
	}
	c := mk()
	jumped := c.ModelAt(40).Taps
	for i := range jumped {
		if jumped[i] != at[i] {
			t.Fatalf("tag %d: jumped %v != walked %v", i, jumped[i], at[i])
		}
	}
}

// TestGaussMarkovStatistics pins the two properties the model promises:
// the lag-1 autocorrelation coefficient of each tap sequence is ρ, and
// |h|² is stationary at the initial tap power. The run is deterministic
// (fixed seed), so the tolerances guard the estimator math, not
// flakiness; they are sized to the estimators' standard errors over
// T = 20000 slots.
func TestGaussMarkovStatistics(t *testing.T) {
	const (
		k = 3
		T = 20000
	)
	rho := []float64{0.5, 0.9, 0.97}
	init := NewFromSNRBand(k, 16, 22, prng.NewSource(0xABCD))
	power := make([]float64, k)
	for i, h := range init.Taps {
		power[i] = real(h)*real(h) + imag(h)*imag(h)
	}
	g := NewGaussMarkov(init, rho, 0x60D)

	taps := make([][]complex128, k)
	for slot := 1; slot <= T; slot++ {
		for i, h := range g.ModelAt(slot).Taps {
			taps[i] = append(taps[i], h)
		}
	}
	for i := 0; i < k; i++ {
		var lag, pow float64
		for tt := 0; tt+1 < T; tt++ {
			lag += real(taps[i][tt] * cmplx.Conj(taps[i][tt+1]))
			pow += real(taps[i][tt] * cmplx.Conj(taps[i][tt]))
		}
		r1 := lag / pow
		if math.Abs(r1-rho[i]) > 0.03 {
			t.Errorf("tag %d: lag-1 autocorrelation %.4f, want rho=%.2f +- 0.03", i, r1, rho[i])
		}
		meanPow := pow / float64(T-1)
		// Effective sample count under AR(1) correlation is
		// T·(1−ρ)/(1+ρ); allow ~4 standard errors.
		tol := 4 * math.Sqrt((1+rho[i])/((1-rho[i])*float64(T)))
		if math.Abs(meanPow/power[i]-1) > tol {
			t.Errorf("tag %d: mean |h|^2 %.4f vs stationary power %.4f (rel err %.3f > tol %.3f)",
				i, meanPow, power[i], meanPow/power[i]-1, tol)
		}
		// Stationarity across the run: first and second half agree.
		var firstHalf, secondHalf float64
		for tt := 0; tt < T/2; tt++ {
			firstHalf += real(taps[i][tt] * cmplx.Conj(taps[i][tt]))
			secondHalf += real(taps[i][T/2+tt] * cmplx.Conj(taps[i][T/2+tt]))
		}
		ratio := firstHalf / secondHalf
		if tol2 := 2 * math.Sqrt2 * tol; math.Abs(ratio-1) > tol2 {
			t.Errorf("tag %d: |h|^2 drifts across the run (half-power ratio %.3f, tol %.3f)", i, ratio, tol2)
		}
	}
}

func TestRhoFromDoppler(t *testing.T) {
	if got := RhoFromDoppler(0, 1e-3); got != 1 {
		t.Errorf("zero Doppler: rho=%v, want 1", got)
	}
	slow := RhoFromDoppler(5, 60e-6)
	fast := RhoFromDoppler(200, 60e-6)
	if !(slow > fast) || slow <= 0.99 {
		t.Errorf("rho not decreasing in Doppler: slow=%v fast=%v", slow, fast)
	}
	if got := RhoFromDoppler(10000, 1e-3); got < 0 || got > 1 {
		t.Errorf("extreme Doppler rho=%v escapes [0, 1]", got)
	}
}

// TestCoherenceSlotsFromRho pins the half-correlation window: the
// largest n with rho^n >= 1/2, the discrete coherence-time analogue.
func TestCoherenceSlotsFromRho(t *testing.T) {
	if got := CoherenceSlotsFromRho(1); got != 0 {
		t.Errorf("rho=1 (parked): coherence %d slots, want 0 (forever)", got)
	}
	if got := CoherenceSlotsFromRho(0); got != 1 {
		t.Errorf("rho=0 (memoryless): coherence %d slots, want 1", got)
	}
	for _, c := range []struct {
		rho  float64
		want int
	}{{0.9, 6}, {0.99, 68}, {0.999, 692}, {0.5, 1}} {
		if got := CoherenceSlotsFromRho(c.rho); got != c.want {
			t.Errorf("rho=%v: coherence %d slots, want %d", c.rho, got, c.want)
		}
		// The definition itself: rho^n >= 1/2 > rho^(n+1).
		if n := CoherenceSlotsFromRho(c.rho); n > 0 {
			if math.Pow(c.rho, float64(n)) < 0.5 || math.Pow(c.rho, float64(n+1)) >= 0.5 {
				t.Errorf("rho=%v: n=%d violates rho^n >= 1/2 > rho^(n+1)", c.rho, n)
			}
		}
	}
}

// TestProcessCoherenceSlots pins the per-process coherence reporting
// the auto window policy consumes.
func TestProcessCoherenceSlots(t *testing.T) {
	init := NewFromSNRBand(3, 14, 30, prng.NewSource(3))
	if got := NewStatic(init).CoherenceSlots(); got != 0 {
		t.Errorf("static process coherence %d, want 0", got)
	}
	if got := NewBlockFading(3, 14, 30, 24, 0, 7).CoherenceSlots(); got != 24 {
		t.Errorf("block-fading coherence %d, want the block length 24", got)
	}
	// Mixed roster: the fastest mover sets the window; parked tags
	// (rho=1) are skipped.
	gm := NewGaussMarkov(init, []float64{1, 0.99, 0.9}, 7)
	if got, want := gm.CoherenceSlots(), CoherenceSlotsFromRho(0.9); got != want {
		t.Errorf("gauss-markov coherence %d, want the fastest tag's %d", got, want)
	}
	parked := NewGaussMarkov(NewFromSNRBand(2, 14, 30, prng.NewSource(4)), []float64{1, 1}, 7)
	if got := parked.CoherenceSlots(); got != 0 {
		t.Errorf("all-parked gauss-markov coherence %d, want 0", got)
	}
}

// TestProcessCoherenceSlotsPerTag pins the per-tag coherence reporting
// the per-tag window policy consumes: Gauss–Markov reports each tag's
// own horizon, Static and BlockFading fall back to the global value.
func TestProcessCoherenceSlotsPerTag(t *testing.T) {
	init := NewFromSNRBand(3, 14, 30, prng.NewSource(3))
	st := NewStatic(init)
	bf := NewBlockFading(3, 14, 30, 24, 0, 7)
	for tag := 0; tag < 3; tag++ {
		if got := st.CoherenceSlotsTag(tag); got != 0 {
			t.Errorf("static tag %d coherence %d, want 0", tag, got)
		}
		if got := bf.CoherenceSlotsTag(tag); got != 24 {
			t.Errorf("block-fading tag %d coherence %d, want 24", tag, got)
		}
	}
	gm := NewGaussMarkov(init, []float64{1, 0.99, 0.9}, 7)
	wants := []int{0, CoherenceSlotsFromRho(0.99), CoherenceSlotsFromRho(0.9)}
	for tag, want := range wants {
		if got := gm.CoherenceSlotsTag(tag); got != want {
			t.Errorf("gauss-markov tag %d coherence %d, want %d", tag, got, want)
		}
	}
	// The global view is the min over finite per-tag windows: a roster
	// of parked tags plus one mover must report the mover's horizon.
	if got, want := gm.CoherenceSlots(), gm.CoherenceSlotsTag(2); got != want {
		t.Errorf("global coherence %d, want the fastest tag's %d", got, want)
	}
}

// TestGaussMarkovFreezeTwin checks Freeze against an unfrozen twin: a
// frozen tag's tap stays exactly where it was when it froze, and every
// other tap stays bitwise equal to the twin's for 3,000 slots, with
// tags frozen at different slots, one frozen twice, and two slots
// skipped at a time (ModelAt then advances two steps in one call).
func TestGaussMarkovFreezeTwin(t *testing.T) {
	const (
		k     = 9
		slots = 3000
	)
	freezeAt := map[int][]int{1: {4}, 7: {0, 8}, 250: {3}, 251: {3}, 1999: {6}}
	for _, rho := range []float64{0, 0.99995, 1} {
		init := NewFromSNRBand(k, 10, 26, prng.NewSource(0x5EED))
		twinInit := NewExact(append([]complex128(nil), init.Taps...), init.NoisePower)
		frozen := NewGaussMarkov(init, []float64{rho}, 0xF2EE)
		twin := NewGaussMarkov(twinInit, []float64{rho}, 0xF2EE)
		held := map[int]complex128{}
		for slot := 1; slot <= slots; slot++ {
			if slot%500 == 0 {
				slot++ // a skipped slot: the next ModelAt advances two steps
			}
			got, want := frozen.ModelAt(slot).Taps, twin.ModelAt(slot).Taps
			for i := range got {
				h, ok := held[i]
				switch {
				case ok && got[i] != h:
					t.Fatalf("rho %v slot %d: frozen tag %d moved from %v to %v", rho, slot, i, h, got[i])
				case !ok && got[i] != want[i]:
					t.Fatalf("rho %v slot %d: tag %d is %v, unfrozen twin %v", rho, slot, i, got[i], want[i])
				}
			}
			for _, i := range freezeAt[slot] {
				frozen.Freeze(i)
				if _, ok := held[i]; !ok {
					held[i] = got[i]
				}
			}
		}
		if len(held) != 5 {
			t.Fatalf("rho %v: %d tags frozen, want 5", rho, len(held))
		}
	}
}

// TestFreezeIgnoredByStaticAndBlockFading pins that the processes
// without per-tag evolution ignore Freeze.
func TestFreezeIgnoredByStaticAndBlockFading(t *testing.T) {
	bf, twin := NewBlockFading(4, 10, 20, 8, 0, 3), NewBlockFading(4, 10, 20, 8, 0, 3)
	bf.Freeze(1)
	for slot := 1; slot <= 40; slot++ {
		got, want := bf.ModelAt(slot).Taps, twin.ModelAt(slot).Taps
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("block fading slot %d tag %d: %v after Freeze, %v without", slot, i, got[i], want[i])
			}
		}
	}
	m := NewUniform(3, 20, prng.NewSource(1))
	st := NewStatic(m)
	st.Freeze(0)
	if st.ModelAt(9) != m {
		t.Fatal("static process changed its model on Freeze")
	}
}
