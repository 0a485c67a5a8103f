package bp

import (
	"math"
	"slices"
	"testing"

	"repro/internal/bits"
	"repro/internal/prng"
)

// refGram holds reference copies of the Gram-path kernels as they were
// written before the per-slot N·h tables: a float Gram N gathered from
// the co-occurrence counts, B built per locked tag from the counts and
// taps, every product c·h formed in the pass that uses it, and the
// error summed over every rank through a masked tap vector. The
// session's kernels must match them bit for bit.
type refGram struct {
	n          []float64
	h          []complex128
	wp         []float64
	B, S, m    []complex128
	gain, sign []float64
	lb         []bool
}

// prepare gathers the reference's per-slot constants for the slot the
// session last staged (prepareGram): N, the taps and |h|²·w by rank.
func (r *refGram) prepare(s *Session) {
	g := &s.g
	act := g.activeTags
	ka := len(act)
	r.n = make([]float64, ka*ka)
	r.h = make([]complex128, ka)
	r.wp = make([]float64, ka)
	for x, a := range act {
		r.h[x] = g.taps[a]
		r.wp[x] = g.wPow[a]
		for y, b := range act {
			r.n[x*ka+y] = float64(s.cooc[a*s.kStride+b])
		}
	}
	r.B = make([]complex128, ka)
	r.S = make([]complex128, ka)
	r.m = make([]complex128, ka)
	r.gain = make([]float64, ka)
	r.sign = make([]float64, ka)
	r.lb = make([]bool, ka)
}

// input is the reference gramInput.
func (r *refGram) input(s *Session, p int, b bits.Vector) {
	g := &s.g
	var lk []int
	for _, l := range s.gramLocked {
		if b[l] {
			lk = append(lk, l)
		}
	}
	stride := s.kStride
	mf := s.mf[p*stride : p*stride+s.k]
	for x, a := range g.activeTags {
		v := mf[a]
		row := s.cooc[a*stride : a*stride+s.k]
		for _, l := range lk {
			if c := float64(row[l]); c != 0 {
				h := g.taps[l]
				v -= complex(c*real(h), c*imag(h))
			}
		}
		r.B[x] = v
	}
}

// start is the reference gramStart.
func (r *refGram) start(s *Session, b bits.Vector) {
	act := s.g.activeTags
	ka := len(act)
	n, h, wp := r.n, r.h, r.wp
	S, gain, sign, lb := r.S, r.gain, r.sign, r.lb
	copy(S, r.B)
	for x, i := range act {
		lb[x] = b[i]
		if !b[i] {
			sign[x] = 1
			continue
		}
		sign[x] = -1
		hx := h[x]
		col := n[x*ka : (x+1)*ka]
		for y, c := range col {
			S[y] -= complex(c*real(hx), c*imag(hx))
		}
	}
	for y := range gain {
		gain[y] = 2*(real(h[y])*real(S[y])+imag(h[y])*imag(S[y]))*sign[y] - wp[y]
	}
}

// descend is the reference gramDescend.
func (r *refGram) descend(s *Session, b bits.Vector, maxFlips int, pins []int) int {
	r.start(s, b)
	act := s.g.activeTags
	ka := len(act)
	n, h, wp := r.n, r.h, r.wp
	S, gain, sign, lb := r.S, r.gain, r.sign, r.lb
	for _, x := range pins {
		gain[x] = math.Inf(-1)
	}
	flips := 0
	for flips < maxFlips {
		best, bestG := -1, s.eps
		for y, gv := range gain {
			if gv > bestG {
				bestG = gv
				best = y
			}
		}
		if best < 0 {
			break
		}
		d := h[best]
		if lb[best] {
			d = -d
		}
		lb[best] = !lb[best]
		sign[best] = -sign[best]
		col := n[best*ka : (best+1)*ka]
		for y, c := range col {
			S[y] -= complex(c*real(d), c*imag(d))
			gain[y] = 2*(real(h[y])*real(S[y])+imag(h[y])*imag(S[y]))*sign[y] - wp[y]
		}
		for _, x := range pins {
			gain[x] = math.Inf(-1)
		}
		flips++
	}
	for x, i := range act {
		b[i] = lb[x]
	}
	return flips
}

// error is the reference gramError.
func (r *refGram) error(s *Session, b bits.Vector) float64 {
	act := s.g.activeTags
	ka := len(act)
	n, h, m := r.n, r.h, r.m
	for x, i := range act {
		if b[i] {
			m[x] = h[x]
		} else {
			m[x] = 0
		}
	}
	acc := 0.0
	for x, mx := range m {
		if mx == 0 {
			continue
		}
		t := 2 * r.B[x]
		col := n[x*ka : (x+1)*ka]
		for y, c := range col {
			t -= complex(c*real(m[y]), c*imag(m[y]))
		}
		acc += real(mx)*real(t) + imag(mx)*imag(t)
	}
	return -acc
}

// decodeSlotChecked is DecodeSlot with a hook after each position's
// decode, while the session's workspace still holds that position's
// passes (allBits and passErr, ws.passes of them), its certificate and,
// on a Gram slot, its B.
func decodeSlotChecked(s *Session, slot int, locked []bool, base uint64, minMargin []float64, ambiguous []bool, check func(p int, ws *workspace)) {
	s.prepareSlot(slot, locked, base)
	ws := &s.ws
	for p := 0; p < s.frameLen; p++ {
		s.decodePosition(p)
		check(p, ws)
	}
	s.finishSlot(minMargin, ambiguous)
}

// passErrsMatch reports the first pass of the position ws just decoded
// whose recorded error differs, bitwise, from errOf at that pass's bits,
// or −1 when every pass's matches. Only the passes the position ran
// are recorded: pass 0 alone when its certificate skipped the restarts.
func passErrsMatch(s *Session, ws *workspace, errOf func(bits.Vector) float64) int {
	for q := 0; q < ws.passes; q++ {
		b := bits.Vector(ws.allBits[q*s.k : (q+1)*s.k])
		if math.Float64bits(ws.passErr[q]) != math.Float64bits(errOf(b)) {
			return q
		}
	}
	return -1
}

// TestSessionGramKernelsMatchReference pins the Gram-path kernels
// (gramInput, gramStart, gramDescend, gramError) to the reference
// copies above, bitwise, on random sessions driven through CRC locks,
// Retire, RetireTag and RetapTags, some to a tap of exactly zero. On
// every Gram slot, for every position:
//   - the decode's B, every recorded pass error (a restart that ends on
//     an earlier pass's bits reuses that pass's error; a certified
//     position records pass 0's alone) and the installed gains must
//     equal the reference's at the same bits;
//   - from random bits, with no pins and with a forced bit plus random
//     pins (the acceptance gate's descent), the start state, the
//     descent's S, gains, signs, bits and flips, and the error at the
//     end must equal the reference's.
//
// A full-fan twin (fanTwin) checks the positions whose certificate
// skipped the restarts; the test fails unless some positions were
// certified and some ran the fan.
func TestSessionGramKernelsMatchReference(t *testing.T) {
	const (
		frameLen = 6
		restarts = 2
		slots    = 40
		window   = 14
		inits    = 4
		base     = 0x25A
	)
	var gramSlots, passes, descents, reused, lockedB, zeroTaps, certified, fanned int
	for trial := 0; trial < 10; trial++ {
		src := prng.NewSource(0x25A0 + uint64(trial))
		k := 4 + src.IntN(9)
		q := 0.2 + 0.3*src.Float64()
		taps := randomTaps(k, src)
		msgs := randomEstimates(k, frameLen, src)
		est := randomEstimates(k, frameLen, src)
		nLock := k / 3
		for i := 0; i < nLock; i++ {
			est[i] = msgs[i]
		}
		s := NewSession()
		s.Begin(k, frameLen, slots+1, restarts, taps)
		s.InitPositions(est)
		tw := newFanTwin(k, frameLen, slots+1, restarts, taps)
		tw.ref.InitPositions(est)
		locked := make([]bool, k)
		minMargin := make([]float64, k)
		ambiguous := make([]bool, k)
		cur := append([]complex128(nil), taps...)
		var ref refGram
		b := make(bits.Vector, k)
		check := func(p int, ws *workspace) {
			pb := bits.Vector(s.PosBits(p))
			ref.input(s, p, pb)
			if slices.ContainsFunc(s.gramLocked, func(l int) bool { return pb[l] }) {
				lockedB++
			}
			if s.g.taps[k-1] == 0 && pb[k-1] && !s.g.deactivated[k-1] {
				zeroTaps++
			}
			for x := range ref.B {
				if !bitsEqual(ws.gB[x], ref.B[x]) {
					t.Fatalf("position %d rank %d: B %v, reference %v", p, x, ws.gB[x], ref.B[x])
				}
			}
			if bad := passErrsMatch(s, ws, func(b bits.Vector) float64 { return ref.error(s, b) }); bad >= 0 {
				t.Fatalf("position %d pass %d: recorded error %v, reference %v", p, bad, ws.passErr[bad], ref.error(s, ws.allBits[bad*k:(bad+1)*k]))
			}
			for pass := 1; pass < ws.passes; pass++ {
				same := true
				for _, i := range s.g.activeTags {
					same = same && ws.allBits[pass*k+i] == ws.allBits[i]
				}
				if same {
					reused++
				}
			}
			passes += ws.passes
			st := &s.states[p]
			ref.start(s, pb)
			for x, i := range s.g.activeTags {
				if math.Float64bits(st.gain[i]) != math.Float64bits(ref.gain[x]) {
					t.Fatalf("position %d tag %d: installed gain %v, reference %v", p, i, st.gain[i], ref.gain[x])
				}
			}
		}
		for slot := 1; slot <= slots; slot++ {
			if slot%4 == 0 {
				for i := range cur {
					if src.Bernoulli(0.5) {
						cur[i] *= complex(0.995, 0.02)
					}
				}
				if trial%3 == 2 && slot >= slots/2 {
					// A tap of exactly zero, signed zeros and all:
					// gramError sums its rank when the bit is set, where
					// the reference skipped it.
					cur[k-1] = complex(math.Copysign(0, -1), 0)
				}
				retapAll(s, cur)
				retapAll(tw.ref, cur)
			}
			row := make(bits.Vector, k)
			for i := range row {
				row[i] = src.Bernoulli(q)
			}
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
			appendSlot(s, row, obs)
			appendSlot(tw.ref, row, obs)
			ref = refGram{}
			tw.decode(t, s, slot, locked, base, minMargin, ambiguous, func(p int, ws *workspace) {
				if !s.gramOn {
					return
				}
				if ref.n == nil {
					ref.prepare(s)
				}
				check(p, ws)
			})
			if s.gramOn {
				gramSlots++
				descents += checkGramKernels(t, s, &ref, src, b, inits)
			}
			switch {
			case slot%7 == 0 && slot/7 <= nLock:
				locked[slot/7-1] = true
			case slot > window && slot%3 == 0:
				s.Retire(slot - window)
				tw.ref.Retire(slot - window)
			case slot%5 == 0:
				i := src.IntN(k)
				s.RetireTag(i, slot-window/2)
				tw.ref.RetireTag(i, slot-window/2)
			}
		}
		certified += tw.gramCert
		fanned += tw.gramFan
	}
	if gramSlots < 20 || reused == 0 || lockedB == 0 || zeroTaps == 0 || certified == 0 || fanned == 0 {
		t.Fatalf("%d Gram slots, %d restarts ending on pass 0's bits, %d positions with a locked set bit in B, %d with a set zero-tap bit, %d certified, %d ran the fan; want at least 20 and 1, 1, 1, 1, 1", gramSlots, reused, lockedB, zeroTaps, certified, fanned)
	}
	t.Logf("%d Gram slots: %d decode passes (%d restarts ending on pass 0's bits; %d positions with a locked set bit in B, %d with a set zero-tap bit; %d positions certified, %d ran the fan) and %d descents matched the reference", gramSlots, passes, reused, lockedB, zeroTaps, certified, fanned, descents)
}

// checkGramKernels runs the session's Gram kernels and the reference
// from n random bit vectors at every position of the last decoded (Gram)
// slot, unpinned and with the gate's pins, and fails on the first bitwise
// difference. Returns the number of descents compared.
func checkGramKernels(t *testing.T, s *Session, ref *refGram, src *prng.Source, b bits.Vector, n int) int {
	t.Helper()
	act := s.g.activeTags
	ka := len(act)
	ws := &s.cond
	rb := make(bits.Vector, len(b))
	maxFlips := 64 * (s.g.K + 1) * (s.g.L + 1)
	compared := 0
	for p := 0; p < s.frameLen; p++ {
		for init := 0; init < n; init++ {
			copy(b, s.PosBits(p))
			randomBitsInto(src, b, act)
			ws.gramInput(s, p, b)
			ref.input(s, p, b)
			ws.gramStart(s, b)
			ref.start(s, b)
			gramStateMatches(t, ws, ref, ka, "start", p)
			var pins []int
			if init%2 == 1 && ka > 0 {
				// The gate's descent: a forced bit, pinned, and random
				// pinned ranks beside it.
				f := src.IntN(ka)
				b[act[f]] = !b[act[f]]
				pins = append(pins, f)
				for x := range act {
					if x != f && src.Bernoulli(0.3) {
						pins = append(pins, x)
					}
				}
			}
			copy(rb, b)
			got, want := ws.gramDescend(s, b, maxFlips, pins), ref.descend(s, rb, maxFlips, pins)
			if got != want || !slices.Equal(b, rb) {
				t.Fatalf("position %d init %d pins %v: %d flips to %v, reference %d to %v", p, init, pins, got, b, want, rb)
			}
			gramStateMatches(t, ws, ref, ka, "descent", p)
			if e, re := ws.gramError(s, b), ref.error(s, rb); math.Float64bits(e) != math.Float64bits(re) {
				t.Fatalf("position %d init %d: error %v, reference %v", p, init, e, re)
			}
			compared++
		}
	}
	return compared
}

// gramStateMatches fails unless the workspace's S, gains, signs and
// ranked bits equal the reference's bitwise.
func gramStateMatches(t *testing.T, ws *workspace, ref *refGram, ka int, what string, p int) {
	t.Helper()
	for x := 0; x < ka; x++ {
		if !bitsEqual(ws.gS[x], ref.S[x]) || math.Float64bits(ws.gGain[x]) != math.Float64bits(ref.gain[x]) ||
			ws.gSign[x] != ref.sign[x] || ws.gBits[x] != ref.lb[x] {
			t.Fatalf("%s at position %d rank %d: (S %v, gain %v, sign %v, bit %v), reference (%v, %v, %v, %v)",
				what, p, x, ws.gS[x], ws.gGain[x], ws.gSign[x], ws.gBits[x], ref.S[x], ref.gain[x], ref.sign[x], ref.lb[x])
		}
	}
}
