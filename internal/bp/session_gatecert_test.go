package bp

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/prng"
)

// gateTally counts acceptance-gate decisions by slot kind: those the
// certificate proved (gateCertified) and those that ran the re-descent.
type gateTally struct {
	gramCert, gramRun, rowCert, rowRun int
}

// checkGateCertificate is the gate certificate's twin check. At every
// position, for every active tag with observations, it asks the gate
// ConditionalMarginAtLeast twice — certified, and with the certificate
// off (noGateCert), which always runs the re-descent — and fails unless
// the two decisions are equal. The thresholds are fixed values of the
// order the transfer loops use, and the tag's own margin m with its two
// neighbouring floats, where only a certificate that overstates the
// margin by an ulp would decide differently. Each tag is asked with the
// decode's locked set and with one more active tag pinned, as when the
// gate loop locked it earlier in the same slot. It tallies the
// certified decisions into tally.
func checkGateCertificate(t *testing.T, s *Session, locked []bool, tally *gateTally) {
	t.Helper()
	g := &s.g
	k := s.k
	extra := make([]bool, k)
	for p := 0; p < s.frameLen; p++ {
		for _, i := range g.activeTags {
			if g.Degree(i) == 0 {
				continue
			}
			copy(extra, locked[:k])
			for _, j := range g.activeTags {
				if j != i {
					extra[j] = true
					break
				}
			}
			for _, pins := range [][]bool{locked[:k], extra} {
				m := s.ConditionalMargin(p, i, pins)
				for _, thr := range []float64{-0.5, 0.1, 0.25, 0.5, 0.9, m, math.Nextafter(m, math.Inf(-1)), math.Nextafter(m, math.Inf(1))} {
					got := s.ConditionalMarginAtLeast(p, i, pins, thr)
					s.noGateCert = true
					want := s.ConditionalMarginAtLeast(p, i, pins, thr)
					s.noGateCert = false
					if got != want {
						t.Fatalf("position %d tag %d threshold %v (margin %v, Gram %v): certified gate %v, re-descent %v", p, i, thr, m, s.gramOn, got, want)
					}
					cert := s.gateCertified(p, i, thr)
					switch {
					case s.gramOn && cert:
						tally.gramCert++
					case s.gramOn:
						tally.gramRun++
					case cert:
						tally.rowCert++
					default:
						tally.rowRun++
					}
				}
			}
		}
	}
}

// TestSessionGateCertificateMatchesGate runs checkGateCertificate after
// every decode of driveGateSessions' seeded transfers (retaps, locks,
// Retire and RetireTag, on both slot kinds). It fails unless both slot
// kinds had decisions the certificate proved and decisions that ran the
// re-descent.
func TestSessionGateCertificateMatchesGate(t *testing.T) {
	var tally gateTally
	gram, rows := driveGateSessions(t, 16, 0x6C3, func(s *Session, locked []bool) {
		checkGateCertificate(t, s, locked, &tally)
	})
	if gram == 0 || rows == 0 || tally.gramCert == 0 || tally.gramRun == 0 || tally.rowCert == 0 || tally.rowRun == 0 {
		t.Fatalf("%d Gram and %d row slots; Gram %d certified, %d ran; row %d certified, %d ran; want each above 0",
			gram, rows, tally.gramCert, tally.gramRun, tally.rowCert, tally.rowRun)
	}
	t.Logf("Gram slots: %d decisions certified, %d ran the re-descent; row slots: %d certified, %d ran", tally.gramCert, tally.gramRun, tally.rowCert, tally.rowRun)
}

// TestGateCertifiedThresholds pins gateCertified's bound at its
// boundary on a hand-built slot: tags 0 and 1 share their one row with
// real taps 1 and 0.5, so k_01 = 1, A_0 = A_1 = 1 and |h_0|²·w_0 = 1.
// With m_0 and m_1 set through the installed gains, the bound is
// m_0 − ½ + min(0, m_1 − ½); a threshold δ below it certifies, one δ
// above it does not, and dropping the ½·A or the min(0, ·) term of a
// neighbour flips a case.
func TestGateCertifiedThresholds(t *testing.T) {
	s := NewSession()
	s.Begin(2, 1, 2, 2, []complex128{1, 0.5})
	s.AppendSlot([]bool{true, true}, []complex128{0})
	s.prepareSlot(1, nil, 0)
	if s.certA[0] != 1 || s.certA[1] != 1 {
		t.Fatalf("staged A %v, want [1 1]", s.certA[:2])
	}
	const lambda = 1.0
	s.certLambda[0] = lambda
	slack := func(thr float64) float64 { return certSlack * (lambda + math.Abs(thr)) }
	for _, c := range []struct {
		what   string
		m0, m1 float64
		thr    float64
		want   bool
	}{
		{"bound m_0 − ½ above thr by 2δ", 1, 1, 0.5 - 2*slack(0.5), true},
		{"bound m_0 − ½ above thr by δ/2", 1, 1, 0.5 - 0.5*slack(0.5), false},
		{"thr above m_0 − ½", 1, 1, 0.6, false},
		{"a neighbour's deficit m_1 − ½ counts", 1, 0.25, 0.3, false},
		{"the neighbour's deficit leaves room", 1, 0.25, 0.2, true},
		{"a neighbour's surplus does not count", 0.8, 2, 0.4, false},
		{"NaN gain", math.NaN(), 1, 0.1, false},
		{"infinite margin", math.Inf(1), 1, 0.1, false},
	} {
		s.states[0].gain[0], s.states[0].gain[1] = -c.m0, -c.m1
		if got := s.gateCertified(0, 0, c.thr); got != c.want {
			t.Errorf("%s: gateCertified %v, want %v", c.what, got, c.want)
		}
	}
	s.Begin(2, 1, 2, 0, []complex128{1, 0.5})
	s.AppendSlot([]bool{true, true}, []complex128{0})
	s.prepareSlot(1, nil, 0)
	s.states[0].gain[0], s.states[0].gain[1] = -10, -10
	if s.gateCertified(0, 0, 0.1) {
		t.Error("certified without restarts, where no certificate table is staged")
	}
}

// TestSessionGrowWithinCapMovesNothing pins the stride layout: on a
// session Reserved for kCap tags, a Grow within the cap allocates
// nothing, leaves every backing where it was and every existing tag's
// stripe entries bitwise as they were. A Grow past the cap re-lays the
// stripes, and a session grown past its cap then decodes bitwise like
// one reserved wide enough from the start.
func TestSessionGrowWithinCapMovesNothing(t *testing.T) {
	const (
		k0       = 4
		kCap     = 8
		frameLen = 5
		maxSlots = 40
		restarts = 2
		base     = 0x57D
	)
	src := prng.NewSource(0x57D)
	kMax := kCap + 3
	taps := randomTaps(kMax, src)
	est := randomEstimates(kMax, frameLen, src)
	rows, obss := scriptSlots(kMax, frameLen, maxSlots, 0x57E)

	capped, wide := NewSession(), NewSession()
	capped.Reserve(kCap, frameLen, maxSlots, restarts)
	wide.Reserve(2*kMax, frameLen, maxSlots, restarts)
	both := []*Session{capped, wide}
	for _, s := range both {
		s.Begin(k0, frameLen, maxSlots, restarts, taps[:k0])
		s.InitPositions(est[:k0])
	}
	locked := make([]bool, kMax)
	slot, k := 0, k0
	decode := func() {
		slot++
		for _, s := range both {
			s.AppendSlot(rows[slot-1][:k], obss[slot-1])
		}
		decodeCompare(t, capped, wide, slot, locked[:k], base, k, frameLen)
	}
	for slot < 6 {
		decode()
	}
	locked[1] = true

	type snap struct {
		sum, gain, bSign, posBits, mf, cooc any
		stride                              int
		words                               []uint64
	}
	take := func(s *Session) snap {
		return snap{&s.sumBacking[0], &s.gainBacking[0], &s.bSignBacking[0], &s.posBits[0], &s.mf[0], &s.cooc[0], s.kStride, tagWords(s, k)}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	for k < kCap {
		before := take(capped)
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		capped.Grow(taps[k:k+1], est[k:k+1])
		runtime.ReadMemStats(&ms)
		mallocs = ms.Mallocs - mallocs
		wide.Grow(taps[k:k+1], est[k:k+1])
		after := take(capped)
		if mallocs != 0 {
			t.Fatalf("Grow to K %d within the cap %d allocates %d times, want 0", k+1, kCap, mallocs)
		}
		if before.sum != after.sum || before.gain != after.gain || before.bSign != after.bSign ||
			before.posBits != after.posBits || before.mf != after.mf || before.cooc != after.cooc || before.stride != after.stride {
			t.Fatalf("Grow to K %d within the cap %d moved a backing or its stride", k+1, kCap)
		}
		if !slices.Equal(before.words, after.words) {
			t.Fatalf("Grow to K %d within the cap %d changed an existing tag's entry", k+1, kCap)
		}
		k++
		decode()
	}
	// Past the cap: the stripes re-lay, and decoding continues bitwise
	// like the wide session's.
	for k < kMax {
		for _, s := range both {
			s.Grow(taps[k:k+1], est[k:k+1])
		}
		k++
		decode()
		decode()
	}
	if capped.kStride != kMax || wide.kStride != 2*kMax {
		t.Fatalf("strides %d and %d, want %d and %d", capped.kStride, wide.kStride, kMax, 2*kMax)
	}
	for slot < maxSlots {
		decode()
	}
}

// tagWords flattens the per-position stripe entries and matched-filter
// state of tags [0, k) — S-sums, gains, flip signs, bits, matched-filter
// outputs and co-occurrence counts — into bit patterns, so two snapshots
// compare bitwise.
func tagWords(s *Session, k int) []uint64 {
	var w []uint64
	c := func(v complex128) { w = append(w, math.Float64bits(real(v)), math.Float64bits(imag(v))) }
	stride := s.kStride
	for p := 0; p < s.frameLen; p++ {
		st := &s.states[p]
		for i := 0; i < k; i++ {
			c(st.sum[i])
			c(s.mf[p*stride+i])
			w = append(w, math.Float64bits(st.gain[i]), math.Float64bits(st.bSign[i]))
			if s.PosBits(p)[i] {
				w = append(w, 1)
			} else {
				w = append(w, 0)
			}
		}
	}
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			w = append(w, uint64(s.cooc[a*stride+b]))
		}
	}
	return w
}
