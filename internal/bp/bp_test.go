package bp

import (
	"math"
	"slices"
	"testing"

	"repro/internal/bits"
	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/prng"
)

// problem is a one-shot decode instance: the participation rows of D
// (one per collision slot), the tags' channel taps and one observed
// symbol per row.
type problem struct {
	rows []bits.Vector
	taps []complex128
	y    dsp.Vec
}

// errorOf is the reference error ‖y − D·H·b‖², computed from scratch.
func (pr problem) errorOf(b bits.Vector) float64 {
	var e float64
	for r, row := range pr.rows {
		x := pr.y[r]
		for i, on := range row {
			if on && b[i] {
				x -= pr.taps[i]
			}
		}
		e += real(x)*real(x) + imag(x)*imag(x)
	}
	return e
}

// buildProblem synthesizes a decode instance: K tags with taps from the
// channel model, a sparse-ish participation matrix of L slots with
// per-slot participation probability p, truth bits, and the resulting
// (optionally noisy) observation.
func buildProblem(src *prng.Source, k, l int, p float64, snrDB float64, noisy bool) (problem, bits.Vector) {
	m := channel.NewUniform(k, snrDB, src)
	pr := problem{taps: m.Taps, y: make(dsp.Vec, l)}
	for slot := 0; slot < l; slot++ {
		row := make(bits.Vector, k)
		for i := range row {
			row[i] = src.Bernoulli(p)
		}
		pr.rows = append(pr.rows, row)
	}
	truth := bits.Random(src, k)
	noise := src.Fork(77)
	for slot, row := range pr.rows {
		active := make([]bool, k)
		for i := 0; i < k; i++ {
			active[i] = row[i] && truth[i]
		}
		if noisy {
			pr.y[slot] = m.Symbol(active, noise)
		} else {
			pr.y[slot] = m.Noiseless(active)
		}
	}
	return pr, truth
}

// oneShot runs a Session as a one-shot decoder: frame length 1, one
// AppendColliders per row of the problem, then a single DecodeSlot at the
// last slot. Bits and error are the session's position 0; margins,
// ambiguity flags and the flip count are that DecodeSlot's outputs. A
// oneShot reuses its Session and buffers, so a warm one decodes a
// same-shaped problem without allocating.
type oneShot struct {
	s         *Session
	est       []bits.Vector
	src       prng.Source
	cols      []int
	margins   []float64
	ambiguous []bool
	flips     uint64
}

func newOneShot() *oneShot { return &oneShot{s: NewSession()} }

// decode runs pr from init (nil: uniform random bits drawn from base)
// with the given tags locked at their init values and restarts random
// re-initializations; base is the decode-PRNG root.
func (o *oneShot) decode(pr problem, init bits.Vector, locked []bool, restarts int, base uint64) {
	k := len(pr.taps)
	o.s.Begin(k, 1, len(pr.rows), restarts, pr.taps)
	if cap(o.est) < k {
		o.est = make([]bits.Vector, k)
		for i := range o.est {
			o.est[i] = make(bits.Vector, 1)
		}
	}
	o.est = o.est[:k]
	o.src.Reseed(base)
	for i, e := range o.est {
		if init != nil {
			e[0] = init[i]
		} else {
			e[0] = o.src.Bool()
		}
	}
	o.s.InitPositions(o.est)
	for r, row := range pr.rows {
		o.cols = appendCols(o.cols[:0], row)
		o.s.AppendColliders(o.cols, pr.y[r:r+1])
	}
	o.margins = grow(o.margins, k)
	o.ambiguous = grow(o.ambiguous, k)
	o.s.DecodeSlot(len(pr.rows), locked, base, o.margins, o.ambiguous)
	o.flips = o.s.TakeDecodeCost().Flips
}

// decoded returns the decoded bits; valid until the next decode.
func (o *oneShot) decoded() bits.Vector { return bits.Vector(o.s.PosBits(0)) }

// err returns ‖y − D·H·b̂‖² at the decoded bits.
func (o *oneShot) err() float64 { return o.s.PosError(0) }

// colsOf lists a participation row's colliders, the form
// Graph.AppendRow and Session.AppendColliders take.
func colsOf(row bits.Vector) []int { return appendCols(nil, row) }

// appendCols appends row's colliders to dst.
func appendCols(dst []int, row bits.Vector) []int {
	for i, on := range row {
		if on {
			dst = append(dst, i)
		}
	}
	return dst
}

// appendSlot feeds s one slot given as a participation row.
func appendSlot(s *Session, row bits.Vector, obs []complex128) {
	s.AppendColliders(colsOf(row), obs)
}

// retapAll installs taps for every tag of s.
func retapAll(s *Session, taps []complex128) { s.RetapTags(taps, allTags(len(taps))) }

// allTags lists the tags 0..k−1.
func allTags(k int) []int {
	tags := make([]int, k)
	for i := range tags {
		tags[i] = i
	}
	return tags
}

// colsOfRows maps colsOf over rows.
func colsOfRows(rows []bits.Vector) [][]int {
	cols := make([][]int, len(rows))
	for r, row := range rows {
		cols[r] = colsOf(row)
	}
	return cols
}

func TestNewGraphAdjacency(t *testing.T) {
	var g Graph
	g.Reset(3, []complex128{1, 2, 3})
	g.AppendRow([]int{0, 2})
	g.AppendRow([]int{1})
	if g.K != 3 || g.L != 2 {
		t.Fatalf("graph dims %dx%d", g.K, g.L)
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 1 {
		t.Fatal("degrees wrong")
	}
	if len(g.rowCols[0]) != 2 || len(g.rowCols[1]) != 1 {
		t.Fatal("row adjacency wrong")
	}
}

func TestNewGraphPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var g Graph
	g.Reset(3, []complex128{1})
}

func TestDecodeNoiselessRecoversTruth(t *testing.T) {
	src := prng.NewSource(1)
	o := newOneShot()
	ok := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		k := 4 + src.IntN(10)
		l := 2*k + 4
		pr, truth := buildProblem(src, k, l, 0.35, 25, false)
		o.decode(pr, nil, nil, 4, src.Fork(uint64(trial)).Uint64())
		if o.decoded().Equal(truth) {
			ok++
		}
	}
	if ok < trials*9/10 {
		t.Fatalf("noiseless BP recovery %d/%d too low", ok, trials)
	}
}

func TestDecodeReachesLocalOptimum(t *testing.T) {
	// At the returned b̂, no single flip may reduce the error — that is
	// Alg. 1's termination condition.
	src := prng.NewSource(2)
	o := newOneShot()
	for trial := 0; trial < 20; trial++ {
		k := 5 + src.IntN(8)
		pr, _ := buildProblem(src, k, 2*k, 0.4, 12, true)
		o.decode(pr, nil, nil, 0, src.Fork(uint64(trial)).Uint64())
		for i := 0; i < k; i++ {
			flipped := o.decoded().Clone()
			flipped[i] = !flipped[i]
			if pr.errorOf(flipped) < o.err()-1e-9 {
				t.Fatalf("trial %d: flipping bit %d improves error: %f -> %f",
					trial, i, o.err(), pr.errorOf(flipped))
			}
		}
	}
}

func TestDecodeErrorMatchesErrorOf(t *testing.T) {
	src := prng.NewSource(3)
	pr, _ := buildProblem(src, 8, 16, 0.4, 15, true)
	o := newOneShot()
	o.decode(pr, nil, nil, 0, src.Fork(9).Uint64())
	if math.Abs(o.err()-pr.errorOf(o.decoded())) > 1e-9 {
		t.Fatalf("incremental error %f != recomputed %f", o.err(), pr.errorOf(o.decoded()))
	}
}

func TestDecodeHonorsLocks(t *testing.T) {
	src := prng.NewSource(4)
	o := newOneShot()
	for trial := 0; trial < 20; trial++ {
		k := 6
		pr, truth := buildProblem(src, k, 18, 0.4, 25, false)
		// Lock tags 0 and 1 to their true values; the decode must keep
		// them no matter what.
		init := bits.Random(src, k)
		init[0], init[1] = truth[0], truth[1]
		locked := make([]bool, k)
		locked[0], locked[1] = true, true
		o.decode(pr, init, locked, 3, src.Fork(uint64(trial)).Uint64())
		if o.decoded()[0] != truth[0] || o.decoded()[1] != truth[1] {
			t.Fatalf("trial %d: locked bits were flipped", trial)
		}
	}
}

func TestDecodeLockedWrongValueStaysWrong(t *testing.T) {
	// Locks must hold even when the locked value is wrong — that is the
	// whole point of CRC gating: the decoder itself never second-guesses
	// a frozen message.
	src := prng.NewSource(5)
	pr, truth := buildProblem(src, 5, 15, 0.5, 25, false)
	init := truth.Clone()
	init[2] = !truth[2]
	locked := make([]bool, 5)
	locked[2] = true
	o := newOneShot()
	o.decode(pr, init, locked, 0, src.Fork(1).Uint64())
	if o.decoded()[2] == truth[2] {
		t.Fatal("locked bit was corrected, locks are not being honored")
	}
}

func TestDecodeWithGoodInitConvergesFaster(t *testing.T) {
	src := prng.NewSource(6)
	pr, truth := buildProblem(src, 12, 30, 0.35, 25, false)
	o := newOneShot()
	o.decode(pr, truth, nil, 0, src.Fork(1).Uint64())
	if o.flips != 0 {
		t.Fatalf("decoding from the truth should need 0 flips, took %d", o.flips)
	}
	if !o.decoded().Equal(truth) {
		t.Fatal("truth should be a fixed point in the noiseless case")
	}
}

func TestDecodeStrongTagsDecodeDespiteWeak(t *testing.T) {
	// Near-far: one tag 20 dB above another. The strong tag's bit must
	// come out right even when noise drowns the weak one — the mechanism
	// behind Fig. 9's "certain tags ... immediately decoded".
	src := prng.NewSource(7)
	o := newOneShot()
	strongRight := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		m := channel.NewExact([]complex128{10, 0.5}, 0.25)
		pr := problem{taps: m.Taps}
		truth := bits.Random(src, 2)
		noise := src.Fork(uint64(trial))
		for slot := 0; slot < 6; slot++ {
			row := bits.Vector{src.Bernoulli(0.6), src.Bernoulli(0.6)}
			pr.rows = append(pr.rows, row)
			active := []bool{row[0] && truth[0], row[1] && truth[1]}
			pr.y = append(pr.y, m.Symbol(active, noise))
		}
		o.decode(pr, nil, nil, 2, src.Fork(uint64(1000+trial)).Uint64())
		if o.decoded()[0] == truth[0] {
			strongRight++
		}
	}
	if strongRight < trials*9/10 {
		t.Fatalf("strong tag decoded only %d/%d", strongRight, trials)
	}
}

// TestDescendTieBreaksTowardLowerIndex pins the descent's selection
// order on an exact tie. Tags 1 and 3 share a tap and a row whose
// observation is that tap, so from all-zero bits their gains are
// bitwise equal and positive, and flipping either one explains the row
// and drives the other's gain negative. The descent must flip tag 1,
// the lower index, and leave tag 3 alone. Tag 4, alone in its row, has
// a strictly larger gain and flips too: a higher gain beats a lower
// index.
func TestDescendTieBreaksTowardLowerIndex(t *testing.T) {
	const eps = 1e-12
	h := complex(1.2, 0.3)
	taps := []complex128{complex(0.8, -0.2), h, complex(1.1, 0.4), h, complex(2, 0)}
	rows := []bits.Vector{
		{false, true, false, true, false},
		{true, false, true, false, false},
		{false, false, false, false, true},
	}
	y := []complex128{h, 0, taps[4]}
	k, l := len(taps), len(rows)

	var g Graph
	g.Reset(k, taps)
	for _, row := range rows {
		g.AppendRow(colsOf(row))
	}
	g.SnapshotActive()
	st := descentState{
		residual: make(dsp.Vec, l),
		sum:      make([]complex128, k),
		gain:     make([]float64, k),
		bSign:    make([]float64, k),
		maskTap:  make([]complex128, k),
	}
	st.allocDirty(make([]int, k), make([]bool, k))
	// At all-zero bits the residual is y itself.
	b := make(bits.Vector, k)
	st.buildFrom(&g, &descentState{residual: y}, b, b)
	if st.gain[1] != st.gain[3] || !(st.gain[1] > eps) {
		t.Fatalf("gains of tags 1 and 3 are %v and %v, want bitwise equal and above eps", st.gain[1], st.gain[3])
	}
	if !(st.gain[4] > st.gain[1]) {
		t.Fatalf("tag 4 gain %v, want above the tied gain %v", st.gain[4], st.gain[1])
	}
	if flips := st.descend(&g, b, nil, eps); flips != 2 {
		t.Fatalf("descent made %d flips, want 2", flips)
	}
	if want := (bits.Vector{false, true, false, false, true}); !slices.Equal(b, want) {
		t.Fatalf("descent ended on %v, want %v (the tie goes to tag 1)", b, want)
	}
}

func TestDecodePanicsOnBadDimensions(t *testing.T) {
	src := prng.NewSource(8)
	pr, _ := buildProblem(src, 4, 8, 0.5, 20, false)
	fresh := func() *Session {
		s := NewSession()
		s.Begin(4, 2, 8, 0, pr.taps)
		return s
	}
	est := randomEstimates(4, 2, src)
	obs := []complex128{1, 2}
	margins, amb := make([]float64, 4), make([]bool, 4)
	for name, fn := range map[string]func(){
		"short obs":      func() { appendSlot(fresh(), pr.rows[0], obs[:1]) },
		"short taps":     func() { retapAll(fresh(), pr.taps[:2]) },
		"past maxSlots":  func() { s := NewSession(); s.Begin(4, 2, 0, 0, pr.taps); appendSlot(s, pr.rows[0], obs) },
		"few estimates":  func() { fresh().InitPositions(est[:2]) },
		"short estimate": func() { fresh().InitPositions(randomEstimates(4, 1, src)) },
		"short locked":   func() { s := fresh(); s.InitPositions(est); s.DecodeSlot(0, make([]bool, 2), 0, margins, amb) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestDecodeEmptyGraph(t *testing.T) {
	o := newOneShot()
	o.decode(problem{}, nil, nil, 0, 1)
	if len(o.decoded()) != 0 || o.err() != 0 {
		t.Fatalf("empty decode: bits %v error %v", o.decoded(), o.err())
	}
}

func TestDecodeDeterministicGivenSeed(t *testing.T) {
	src := prng.NewSource(9)
	pr, _ := buildProblem(src, 10, 20, 0.4, 10, true)
	a, b := newOneShot(), newOneShot()
	a.decode(pr, nil, nil, 2, 55)
	b.decode(pr, nil, nil, 2, 55)
	if !a.decoded().Equal(b.decoded()) || a.err() != b.err() || a.flips != b.flips {
		t.Fatal("decode is not deterministic for a fixed seed")
	}
}

// BenchmarkDecodeK16L32 times one one-shot decode at the paper's scale:
// K = 16 tags, L = 32 collision slots, frame length 1, no restarts —
// append every row to a warm session, then run pass 0's descent from a
// random start.
func BenchmarkDecodeK16L32(b *testing.B) {
	src := prng.NewSource(10)
	pr, _ := buildProblem(src, 16, 32, 0.3, 15, true)
	seeds := prng.NewSource(11)
	o := newOneShot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.decode(pr, nil, nil, 0, seeds.Uint64())
	}
}
