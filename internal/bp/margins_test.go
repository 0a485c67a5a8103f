package bp

import (
	"testing"

	"repro/internal/bits"
	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/prng"
)

// pairProblem is two tags with identical taps and identical
// participation in six slots — fundamentally interchangeable. Truth:
// tag 0 sends 1, tag 1 sends 0, so y = h per slot, and the swapped
// assignment explains y equally well.
func pairProblem() problem {
	h := complex(1, 0.5)
	pr := problem{taps: []complex128{h, h}}
	for i := 0; i < 6; i++ {
		pr.rows = append(pr.rows, bits.Vector{true, true}) // always both
		pr.y = append(pr.y, h)
	}
	return pr
}

func TestMarginsNonNegativeAtLocalOptimum(t *testing.T) {
	// By definition of the stopping rule, no single flip improves the
	// error at the decoder's output, so every margin (= −gain/energy)
	// is ≥ 0 up to the epsilon guard.
	src := prng.NewSource(21)
	o := newOneShot()
	for trial := 0; trial < 30; trial++ {
		k := 4 + src.IntN(10)
		pr, _ := buildProblem(src, k, 2*k, 0.4, 12, true)
		o.decode(pr, nil, nil, 1, src.Fork(uint64(trial)).Uint64())
		for i, m := range o.margins {
			if o.s.Degree(i) == 0 {
				if m != 0 {
					t.Fatalf("unobserved tag %d has margin %f, want 0", i, m)
				}
				continue
			}
			if m < -1e-9 {
				t.Fatalf("trial %d tag %d: negative margin %f at a local optimum", trial, i, m)
			}
		}
	}
}

func TestMarginsHighAtTruthCleanChannel(t *testing.T) {
	// At the true bits with negligible noise, flipping any observed bit
	// adds its full collision energy: margins ≈ 1. Decoding from the
	// truth makes no flip, so the margins are the truth's.
	src := prng.NewSource(22)
	pr, truth := buildProblem(src, 8, 24, 0.4, 40, false)
	o := newOneShot()
	o.decode(pr, truth, nil, 0, 1)
	if o.flips != 0 {
		t.Fatalf("decode from the truth flipped %d bits", o.flips)
	}
	for i, m := range o.margins {
		if o.s.Degree(i) == 0 {
			continue
		}
		if m < 0.95 || m > 1.05 {
			t.Fatalf("tag %d margin %f at truth, want ~1", i, m)
		}
	}
}

func TestConditionalMarginDetectsPairSwap(t *testing.T) {
	// The conditional margin must expose the interchangeable pair, while
	// the plain flip margin does not.
	b := bits.Vector{true, false}
	o := newOneShot()
	o.decode(pairProblem(), b, nil, 0, 23)
	if !o.decoded().Equal(b) {
		t.Fatalf("decode left the exact fit: %v", o.decoded())
	}
	if o.margins[0] < 0.9 {
		t.Fatalf("plain margin %f should look confident (that is the trap)", o.margins[0])
	}
	cond := o.s.ConditionalMargin(0, 0, nil)
	if cond > 0.1 {
		t.Fatalf("conditional margin %f should expose the swap ambiguity", cond)
	}
}

func TestConditionalMarginHighWhenUnambiguous(t *testing.T) {
	// Distinct taps: forcing a bit wrong and re-optimizing cannot
	// recover the fit, so the conditional margin stays near 1.
	m := channel.NewExact([]complex128{complex(2, 0), complex(0, 1)}, 0)
	pr := problem{taps: m.Taps}
	truth := bits.Vector{true, true}
	for i := 0; i < 6; i++ {
		row := bits.Vector{true, i%2 == 0}
		pr.rows = append(pr.rows, row)
		pr.y = append(pr.y, m.Noiseless([]bool{row[0] && truth[0], row[1] && truth[1]}))
	}
	o := newOneShot()
	o.decode(pr, truth, nil, 0, 24)
	for i := 0; i < 2; i++ {
		if cm := o.s.ConditionalMargin(0, i, nil); cm < 0.8 {
			t.Fatalf("tag %d conditional margin %f, want ~1", i, cm)
		}
	}
}

func TestConditionalMarginUnobservedTag(t *testing.T) {
	pr := problem{
		rows: []bits.Vector{{true, false}},
		taps: []complex128{1, 1},
		y:    dsp.Vec{1},
	}
	o := newOneShot()
	o.decode(pr, bits.Vector{true, false}, nil, 0, 1)
	if cm := o.s.ConditionalMargin(0, 1, nil); cm != 0 {
		t.Fatalf("unobserved tag conditional margin %f, want 0", cm)
	}
}

func TestAmbiguousFlagOnTiedSolutions(t *testing.T) {
	// Same interchangeable-pair setup: across restarts the decoder
	// should land in both swap states and flag both tags ambiguous.
	pr := pairProblem()
	o := newOneShot()
	flagged := false
	for seed := uint64(0); seed < 10 && !flagged; seed++ {
		o.decode(pr, nil, nil, 4, seed)
		flagged = o.ambiguous[0] || o.ambiguous[1]
	}
	if !flagged {
		t.Fatal("tied swap states never flagged as ambiguous across 10 seeds")
	}
}

func TestAmbiguousNotFlaggedOnCleanProblem(t *testing.T) {
	// A well-separated problem must not cry wolf: no ambiguity flags on
	// a strong clean channel.
	src := prng.NewSource(25)
	o := newOneShot()
	falsePositives := 0
	checks := 0
	for trial := 0; trial < 20; trial++ {
		pr, _ := buildProblem(src, 6, 18, 0.4, 30, false)
		o.decode(pr, nil, nil, 3, src.Fork(uint64(trial)).Uint64())
		for i, a := range o.ambiguous {
			if o.s.Degree(i) == 0 {
				continue
			}
			checks++
			if a {
				falsePositives++
			}
		}
	}
	if falsePositives*10 > checks {
		t.Fatalf("ambiguity flagged on %d/%d clean decodes", falsePositives, checks)
	}
}

func TestMarginsPanicOnDimensionMismatch(t *testing.T) {
	// The margins and ambiguity flags are DecodeSlot's outputs: one entry
	// per tag, checked before the decode touches any state.
	for name, out := range map[string]struct {
		margins   []float64
		ambiguous []bool
	}{
		"short margins":   {make([]float64, 1), make([]bool, 2)},
		"short ambiguity": {make([]float64, 2), make([]bool, 1)},
	} {
		func() {
			s := NewSession()
			s.Begin(2, 1, 2, 0, []complex128{1, 1})
			s.InitPositions([]bits.Vector{{true}, {false}})
			s.AppendSlot(bits.Vector{true, true}, []complex128{1})
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			s.DecodeSlot(1, nil, 0, out.margins, out.ambiguous)
		}()
	}
}
