package bp

import (
	"math"
	"slices"
	"testing"

	"repro/internal/bits"
	"repro/internal/prng"
)

// decodeSetTally counts what a decode-set twin replay exercised.
type decodeSetTally struct {
	rowSlots, gramSlots, emptySlots int
	// rowlessAdoptions counts positions where an adopted restart changed
	// a rowless tag's bit: only an adoption moves one.
	rowlessAdoptions int
	// arrivals counts Grow calls; drained counts Retire and RetireTag
	// calls that left the graph, or the tag, with no live rows, and
	// refilled the decodes after one that found rows again.
	arrivals, drained, refilled int
}

// decodeSetTwin replays one op script on a session and on a twin that
// decodes every unlocked tag (fullWalk), through DecodeSlot, and fails
// on the first difference that the decode set may not make. After every
// decode:
//   - the two sessions' margins, ambiguity flags, bits at every
//     position, DecodeCost and DecodeMoved are bitwise equal;
//   - the tested session's decode set is exactly the unlocked tags with
//     live rows, in ascending order (every unlocked tag on a Gram slot),
//     and its rowless list the unlocked tags without;
//   - every decode-set tag's per-position state is bitwise the twin's:
//     the gains, and after a row slot the S-sums, flip signs and the
//     residual on the active rows; PosError and every decode-set tag's
//     ConditionalMargin are bitwise the twin's;
//   - every rowless tag's gain equals the twin's by value (its sign of
//     zero may differ), its S-sum is zero and its flip sign is its bit's,
//     as a rebuild leaves them.
//
// Ops, one byte each (the low three bits pick, the rest is the
// argument): 0–2 append and decode a slot, whose row density the
// argument picks from sparse (row slots) to dense (Gram slots), and
// whether the newest tag stays silent; 3 admits
// one or two tags (Grow); 4 locks a tag, or with an odd argument
// re-initializes every position at random bits; 5 retires the window through a
// row, or every row when the argument is odd; 6 retires one tag's rows,
// all of them when the argument is odd; 7 moves taps (RetapAll).
func decodeSetTwin(t *testing.T, k0, frameLen int, seed uint64, ops []byte, tally *decodeSetTally) {
	t.Helper()
	const restarts = 2
	kMax := k0 + 4
	src := prng.NewSource(seed)
	taps := randomTaps(kMax, src)
	msgs := randomEstimates(kMax, frameLen, src)
	est := randomEstimates(kMax, frameLen, src)
	for i := 0; i < k0/3; i++ {
		est[i] = msgs[i]
	}
	s, ref := NewSession(), NewSession()
	ref.fullWalk = true
	both := []*Session{s, ref}
	for _, x := range both {
		x.Begin(k0, frameLen, len(ops)+1, restarts, taps[:k0])
		if seed%2 == 0 {
			// An odd seed decodes from whatever bits Begin found.
			x.InitPositions(est[:k0])
		}
	}
	k := k0
	cur := append([]complex128(nil), taps...)
	locked := make([]bool, kMax)
	margin, refMargin := make([]float64, kMax), make([]float64, kMax)
	amb, refAmb := make([]bool, kMax), make([]bool, kMax)
	before := make([]bool, frameLen*kMax)
	emptied := false
	g := &s.g
	for _, op := range ops {
		arg := int(op >> 3)
		switch op % 8 {
		case 3:
			if k == kMax {
				continue
			}
			n := min(1+arg%2, kMax-k)
			for _, x := range both {
				x.Grow(cur[k:k+n], est[k:k+n])
			}
			k += n
			tally.arrivals++
		case 4:
			if arg&1 == 0 {
				locked[(arg>>1)%k] = true
				continue
			}
			// A fresh start at random bits: every position's pass 0 begins
			// away from its optimum, so restarts are often adopted.
			init := randomEstimates(k, frameLen, src)
			for _, x := range both {
				x.InitPositions(init)
			}
		case 5:
			through := 1 + arg%(g.L+1)
			if arg&1 == 1 {
				through = g.L
			}
			for _, x := range both {
				x.Retire(through)
			}
			if g.L > 0 && g.retired == g.L {
				tally.drained++
				emptied = true
			}
		case 6:
			i, through := arg%k, 1+(arg>>1)%(g.L+1)
			if arg&1 == 1 {
				through = g.L
			}
			for _, x := range both {
				x.RetireTag(i, through)
			}
			if len(g.colRows[i]) == 0 && !locked[i] {
				tally.drained++
				emptied = true
			}
		case 7:
			for i := range cur[:k] {
				if (i+arg)%3 == 0 || arg&1 == 1 {
					cur[i] *= complex(1+0.01*float64(arg%5), 0.005)
				}
			}
			for _, x := range both {
				x.RetapAll(cur[:k])
			}
		default:
			if g.L == s.maxSlots {
				continue
			}
			q := 0.1 + 0.8*float64(arg%8)/7
			row := make(bits.Vector, k)
			for i := range row {
				row[i] = src.Bernoulli(q)
			}
			// The newest tag stays silent, often rowless on a dense slot.
			row[k-1] = row[k-1] && arg&8 == 0
			obs := make([]complex128, frameLen)
			for p := range obs {
				y := 0.3 * src.ComplexNorm()
				for i, on := range row {
					if on && msgs[i][p] {
						y += cur[i]
					}
				}
				obs[p] = y
			}
			for p := 0; p < frameLen; p++ {
				copy(before[p*k:(p+1)*k], s.PosBits(p))
			}
			for _, x := range both {
				x.AppendSlot(row, obs)
			}
			s.DecodeSlot(g.L, locked[:k], seed, margin[:k], amb[:k])
			ref.DecodeSlot(g.L, locked[:k], seed, refMargin[:k], refAmb[:k])
			switch {
			case len(g.decodeTags) == 0:
				tally.emptySlots++
			case s.gramOn:
				tally.gramSlots++

			default:
				tally.rowSlots++
			}
			if emptied && len(g.decodeTags) > 0 {
				tally.refilled++
				emptied = false
			}
			for p := 0; p < frameLen; p++ {
				pb := s.PosBits(p)
				if slices.ContainsFunc(g.rowlessTags, func(i int) bool { return pb[i] != before[p*k+i] }) {
					tally.rowlessAdoptions++
				}
			}
			checkDecodeSetTwin(t, s, ref, g.L, locked[:k], margin[:k], refMargin[:k], amb[:k], refAmb[:k])
		}
	}
}

// checkDecodeSetTwin runs decodeSetTwin's comparisons after a decode of
// slot on s and its full-walk twin ref.
func checkDecodeSetTwin(t *testing.T, s, ref *Session, slot int, locked []bool, margin, refMargin []float64, amb, refAmb []bool) {
	t.Helper()
	g := &s.g
	k := s.k
	for i := 0; i < k; i++ {
		if math.Float64bits(margin[i]) != math.Float64bits(refMargin[i]) || amb[i] != refAmb[i] {
			t.Fatalf("slot %d tag %d: margin %v ambiguous %v, full walk %v %v", slot, i, margin[i], amb[i], refMargin[i], refAmb[i])
		}
	}
	if c, rc := s.TakeDecodeCost(), ref.TakeDecodeCost(); c != rc {
		t.Fatalf("slot %d: decode cost %+v, full walk %+v", slot, c, rc)
	}
	if s.DecodeMoved() != ref.DecodeMoved() {
		t.Fatalf("slot %d: DecodeMoved %v, full walk %v", slot, s.DecodeMoved(), ref.DecodeMoved())
	}
	var dec, rowless []int
	for _, i := range g.activeTags {
		if len(g.colRows[i]) == 0 {
			rowless = append(rowless, i)
		}
		if len(g.colRows[i]) > 0 || s.gramOn {
			dec = append(dec, i)
		}
	}
	if !slices.Equal(g.decodeTags, dec) || !slices.Equal(g.rowlessTags, rowless) {
		t.Fatalf("slot %d: decode set %v rowless %v, want %v and %v", slot, g.decodeTags, g.rowlessTags, dec, rowless)
	}
	rows := !s.gramOn
	for p := 0; p < s.frameLen; p++ {
		pb, rpb := s.PosBits(p), ref.PosBits(p)
		if !slices.Equal(pb, rpb) {
			t.Fatalf("slot %d position %d: bits %v, full walk %v", slot, p, pb, rpb)
		}
		st, rst := &s.states[p], &ref.states[p]
		for _, i := range dec {
			if math.Float64bits(st.gain[i]) != math.Float64bits(rst.gain[i]) {
				t.Fatalf("slot %d position %d tag %d: gain %v, full walk %v", slot, p, i, st.gain[i], rst.gain[i])
			}
			if rows && (!bitsEqual(st.sum[i], rst.sum[i]) || st.bSign[i] != rst.bSign[i]) {
				t.Fatalf("slot %d position %d tag %d: S %v sign %v, full walk %v %v", slot, p, i, st.sum[i], st.bSign[i], rst.sum[i], rst.bSign[i])
			}
		}
		for _, i := range rowless {
			sign := float64(1 - 2*bits.Index(pb[i]))
			if st.gain[i] != rst.gain[i] || st.sum[i] != 0 || st.bSign[i] != sign {
				t.Fatalf("slot %d position %d rowless tag %d: gain %v S %v sign %v, full walk gain %v, want S 0 sign %v", slot, p, i, st.gain[i], st.sum[i], st.bSign[i], rst.gain[i], sign)
			}
		}
		for _, row := range g.activeRows {
			if rows && !bitsEqual(st.residual[row], rst.residual[row]) {
				t.Fatalf("slot %d position %d row %d: residual %v, full walk %v", slot, p, row, st.residual[row], rst.residual[row])
			}
		}
		if e, re := s.PosError(p), ref.PosError(p); math.Float64bits(e) != math.Float64bits(re) {
			t.Fatalf("slot %d position %d: error %v, full walk %v", slot, p, e, re)
		}
		for _, i := range dec {
			m, rm := s.ConditionalMargin(p, i, locked), ref.ConditionalMargin(p, i, locked)
			if math.Float64bits(m) != math.Float64bits(rm) {
				t.Fatalf("slot %d position %d tag %d: conditional margin %v, full walk %v", slot, p, i, m, rm)
			}
		}
	}
}

// TestDecodeSetMatchesFullWalk runs the decode-set twin (decodeSetTwin)
// over seeded op scripts and fails unless they exercised row, Gram and
// empty slots, arrivals, retirements that left the graph or a tag with
// no rows followed by decodes with rows again, and adopted restarts that
// moved a rowless tag's bit.
func TestDecodeSetMatchesFullWalk(t *testing.T) {
	var tally decodeSetTally
	for trial := uint64(0); trial < 48; trial++ {
		src := prng.NewSource(0xDEC5E7 + trial)
		ops := make([]byte, 96)
		for x := range ops {
			ops[x] = byte(src.IntN(256))
		}
		decodeSetTwin(t, 3+int(trial%6), 1+int(trial%4), 0xD5+trial, ops, &tally)
	}
	if tally.rowSlots == 0 || tally.gramSlots == 0 || tally.emptySlots == 0 || tally.rowlessAdoptions == 0 ||
		tally.arrivals == 0 || tally.drained == 0 || tally.refilled == 0 {
		t.Fatalf("exercised %+v, want every count above 0", tally)
	}
	t.Logf("exercised %+v", tally)
}

// FuzzDecodeSetTwin is decodeSetTwin over fuzzed op scripts: sessions of
// up to 8 initial tags and frame length up to 4 must decode bitwise as
// their full-walk twins do, whatever the order of arrivals, locks,
// window and per-tag retirements and retaps.
func FuzzDecodeSetTwin(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint64(1), []byte{0, 0, 56, 3, 0, 14, 0, 0, 13, 0, 7, 0, 60, 0, 4, 0, 0})
	f.Add(uint8(6), uint8(3), uint64(7), []byte{16, 24, 3, 0, 11, 0, 0x3E, 0, 0, 5, 0, 0x2F, 0, 0})
	f.Fuzz(func(t *testing.T, kb, fb uint8, seed uint64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		decodeSetTwin(t, 1+int(kb)%8, 1+int(fb)%4, seed, ops, &decodeSetTally{})
	})
}

// TestDecodeSetGramAdoptionMovesRowlessBits drives the twin comparison
// (checkDecodeSetTwin) through Gram slots whose adopted restarts move a
// rowless tag's bit. Tags 0 and 1 collide in every slot with nearly
// cancelling taps, so both-clear and both-set explain a position almost
// equally well; tag 2 never transmits. Every slot first re-initializes
// the positions at random bits, so pass 0 often stops in the worse
// basin and a restart is adopted, carrying its random bit for tag 2.
func TestDecodeSetGramAdoptionMovesRowlessBits(t *testing.T) {
	const (
		k        = 3
		frameLen = 16
		slots    = 24
		restarts = 2
		base     = 0x6A0
	)
	src := prng.NewSource(0x6A0)
	taps := []complex128{1, complex(-0.97, 0.04), complex(0, 0.8)}
	msgs := randomEstimates(k, frameLen, src)
	s, ref := NewSession(), NewSession()
	ref.fullWalk = true
	both := []*Session{s, ref}
	for _, x := range both {
		x.Begin(k, frameLen, slots, restarts, taps)
	}
	locked := make([]bool, k)
	margin, refMargin := make([]float64, k), make([]float64, k)
	amb, refAmb := make([]bool, k), make([]bool, k)
	moved := 0
	for slot := 1; slot <= slots; slot++ {
		init := randomEstimates(k, frameLen, src)
		obs := make([]complex128, frameLen)
		for p := range obs {
			y := 0.05 * src.ComplexNorm()
			for i := 0; i < 2; i++ {
				if msgs[i][p] {
					y += taps[i]
				}
			}
			obs[p] = y
		}
		for _, x := range both {
			x.InitPositions(init)
			x.AppendSlot([]bool{true, true, false}, obs)
		}
		s.DecodeSlot(slot, locked, base, margin, amb)
		ref.DecodeSlot(slot, locked, base, refMargin, refAmb)
		checkDecodeSetTwin(t, s, ref, slot, locked, margin, refMargin, amb, refAmb)
		for p := 0; p < frameLen; p++ {
			if s.gramOn && s.PosBits(p)[2] != bool(init[2][p]) {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Fatal("no adopted restart on a Gram slot moved the rowless tag's bit")
	}
	t.Logf("%d Gram positions adopted a restart that moved the rowless tag's bit", moved)
}
