package cs

import (
	"math"
	mbits "math/bits"
	"testing"

	"repro/internal/dsp"
	"repro/internal/prng"
)

// refDotY is the one-column correlation loop: Σ y[r] over column c's set
// rows, in ascending row order from +0.
func refDotY(m *BinaryMat, c int, y dsp.Vec) complex128 {
	var s complex128
	for w, word := range m.Col(c) {
		base := w * 64
		for word != 0 {
			b := mbits.TrailingZeros64(word)
			s += y[base+b]
			word &= word - 1
		}
	}
	return s
}

// refGramRow is the one-column Gram row loop: g[c] = popcount(col(a)
// AND col(c)), word by word.
func refGramRow(m *BinaryMat, g []float64, a int) {
	ca := m.Col(a)
	for c := range g[:m.Cols] {
		cb := m.Col(c)
		n := 0
		for w, word := range ca {
			n += mbits.OnesCount64(word & cb[w])
		}
		g[c] = float64(n)
	}
}

// TestBinaryMatKernelsMatchReference pins OMPBits' setup kernels against
// the one-column reference loops, bit for bit: the paired Aᴴy (atyInto)
// against refDotY per column, and the word-unrolled Gram row
// (gramRowInto) against refGramRow for every atom. The shapes cover one
// to five words per column (1–320 rows, including partial last words),
// odd and even column counts, and zero-weight columns; the observations
// span many magnitudes, so a sum taken in any other order would round
// differently.
func TestBinaryMatKernelsMatchReference(t *testing.T) {
	src := prng.NewSource(0xB17)
	words := map[int]int{}
	for trial := 0; trial < 120; trial++ {
		rows := 1 + src.IntN(320)
		if trial < 10 {
			rows = []int{1, 63, 64, 65, 128, 129, 192, 256, 257, 320}[trial]
		}
		cols := 1 + src.IntN(40)
		bm := NewBinaryMatScratch(rows, cols, nil)
		density := src.Float64()
		for c := 0; c < cols; c++ {
			if src.IntN(5) == 0 {
				continue // a zero-weight column
			}
			for r := 0; r < rows; r++ {
				if src.Float64() < density {
					bm.Col(c)[r/64] |= 1 << (r % 64)
				}
			}
		}
		words[bm.Words]++
		y := dsp.NewVec(rows)
		for r := range y {
			scale := math.Ldexp(1, src.IntN(60)-30)
			y[r] = complex(scale*src.NormFloat64(), scale*src.NormFloat64())
		}

		aty := dsp.NewVec(cols)
		bm.atyInto(aty, y)
		for c := range aty {
			want := refDotY(bm, c, y)
			if math.Float64bits(real(aty[c])) != math.Float64bits(real(want)) ||
				math.Float64bits(imag(aty[c])) != math.Float64bits(imag(want)) {
				t.Fatalf("trial %d (%d rows, %d cols): Aᴴy[%d] = %v, reference %v", trial, rows, cols, c, aty[c], want)
			}
		}
		g, want := make([]float64, cols), make([]float64, cols)
		for a := 0; a < cols; a++ {
			bm.gramRowInto(g, a)
			refGramRow(bm, want, a)
			for c := range g {
				if math.Float64bits(g[c]) != math.Float64bits(want[c]) {
					t.Fatalf("trial %d (%d rows, %d cols): Gram row %d entry %d = %v, reference %v", trial, rows, cols, a, c, g[c], want[c])
				}
			}
		}
	}
	for w := 1; w <= 5; w++ {
		if words[w] == 0 {
			t.Fatalf("no trial with %d words per column: %v", w, words)
		}
	}
}

// refBestAtom is OMPBits' plain atom-selection loop: one division per
// candidate, the first strictly largest score above 0.
func refBestAtom(zr, zi []float64, weight []int, inSupport []bool) (int, float64) {
	best, bestScore := -1, 0.0
	for c := range weight {
		if inSupport[c] || weight[c] == 0 {
			continue
		}
		s := (zr[c]*zr[c] + zi[c]*zi[c]) / float64(weight[c])
		if s > bestScore {
			bestScore, best = s, c
		}
	}
	return best, bestScore
}

// TestBestAtomMatchesPlainLoop pins bestAtom's division prefilter to the
// plain loop, bitwise, on candidates whose scores sit at the prefilter's
// boundary: each list repeats a score exactly, or one or two ulps off,
// at other weights (|z|² = score·w rounded, then nudged by an ulp either
// way), around zero, and around the 2⁻¹⁰²¹ and 2⁹⁹⁰ bounds where the
// prefilter switches off.
func TestBestAtomMatchesPlainLoop(t *testing.T) {
	src := prng.NewSource(0xA70)
	var selected int
	for trial := 0; trial < 3000; trial++ {
		n := 2 + src.IntN(40)
		zr, zi := make([]float64, n), make([]float64, n)
		weight, inSupport := make([]int, n), make([]bool, n)
		scale := []float64{1, 0x1p-1021, 0x1p990, 1e-300, 1e300, 0}[trial%6]
		target := scale * (0.5 + src.Float64())
		for c := range weight {
			weight[c] = src.IntN(9)
			inSupport[c] = src.Bernoulli(0.1)
			w := float64(max(weight[c], 1))
			q := target * w
			switch src.IntN(6) {
			case 0:
				q = math.Nextafter(q, 0)
			case 1:
				q = math.Nextafter(q, math.Inf(1))
			case 2:
				q = math.Nextafter(math.Nextafter(q, 0), 0)
			case 3:
				q *= 0.5 + src.Float64()
			case 4:
				q = 0
			}
			// q = zr² exactly when zr = √q rounds back; any rounding
			// here only moves the candidate, which both loops see alike.
			zr[c] = math.Sqrt(q)
			if src.Bernoulli(0.3) {
				zr[c], zi[c] = zr[c]*math.Sqrt(0.5), zr[c]*math.Sqrt(0.5)
			}
		}
		if trial%50 == 0 {
			zr[0] = math.NaN()
		}
		gb, gs := bestAtom(zr, zi, weight, inSupport)
		wb, ws := refBestAtom(zr, zi, weight, inSupport)
		if gb != wb || math.Float64bits(gs) != math.Float64bits(ws) {
			t.Fatalf("trial %d: bestAtom (%d, %v), plain loop (%d, %v)", trial, gb, gs, wb, ws)
		}
		if gb >= 0 {
			selected++
		}
	}
	if selected == 0 {
		t.Fatal("no trial selected an atom")
	}
}
