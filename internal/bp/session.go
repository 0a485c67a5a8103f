package bp

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/bits"
	"repro/internal/prng"
	"repro/internal/scratch"
)

// Session is the incremental cross-slot decoder state of one rateless
// transfer: the decoding graph; the matched-filter outputs and
// co-occurrence Gram, which depend on the rows and observations but not
// on the taps; and, for every bit position of the frame, the current
// joint decode and gain table, with the residual and per-tag residual
// sums the row path descends on. Where the naive loop rebuilt
// all of that from scratch every slot — O(L·K·density) per position — a
// Session folds a new collision row into each position in O(colliders)
// and lets the descent continue from where the previous slot left it.
//
// The frame's bit positions are independent decode problems (§6c):
// DecodeSlot decodes them in order on the caller's goroutine, and every
// (slot, position) pair derives its own PRNG stream via prng.Mix3 from
// a base drawn once per transfer. A session starts no goroutine; callers
// with many cores run many sessions (a batch's trials, a daemon's
// connections), one per goroutine.
//
// Sessions are reusable: Begin re-shapes the state for a new transfer
// while keeping every buffer's capacity, so a warm Session (see
// GetSession) runs a steady-state transfer without touching the heap.
// A Session is not safe for concurrent use.
type Session struct {
	g Graph

	k, frameLen, maxSlots int
	restarts              int
	eps                   float64
	// reservedK remembers Reserve's tag capacity so Begin re-carves the
	// adjacency slabs wide enough for the admission-time cap, keeping
	// post-Grow appends allocation-free up to it.
	reservedK int

	// ys[p] collects the observations of bit position p, one symbol per
	// slot, backed by ysBacking in per-position stripes of cap maxSlots.
	ys        [][]complex128
	ysBacking []complex128

	// states[p] is position p's cached descent state. The slot's kind
	// (gramRule) decides what it holds after the decode. A row slot
	// keeps the row state: the residual y_p − D·H·b_p on the active
	// rows, the active tags' S-sums, flip signs and gains, all at the
	// position's bits. A Gram slot decodes every position from the
	// matched-filter state and writes only the active tags' gains, the
	// one entry finishSlot's margin merge reads. The row state is
	// therefore current exactly when stateValid is set (see there). A
	// row-path pass 0 continues the descent on a current residual; a
	// row-path restart changes only active tags' bits, so it starts from
	// the residual plus those bits' tap differences on the active rows,
	// O(active nnz) (buildFrom). The residual is maintained on the active
	// rows only: a rebuild on the sparse shape writes nothing else (see
	// rebuildPosition), and an entry left behind when its row froze is
	// never read again (rows never reactivate). Residuals live in
	// resBacking stripes, sums/gains/signs/dirty-lists in the flat blocks
	// below, one stripe per position at the matched-filter stride kStride
	// (see there), so a Grow within the reserved tag cap writes only the
	// new tags' entries.
	states         []descentState
	resBacking     []complex128
	sumBacking     []complex128
	gainBacking    []float64
	bSignBacking   []float64
	dirtyBacking   []int
	inDirtyBacking []bool

	// The matched-filter state, a sufficient statistic for every Gram
	// pass. mf[p·kStride+i] is position p's matched-filter output for
	// tag i, Σ over i's folded live rows r of y_p[r]; cooc is the
	// co-occurrence Gram WᴴW over the same rows, cooc[a·kStride+b] =
	// the number of those rows a and b share — an exact integer count,
	// stored as int32 to halve the dense (tag cap)² table. Neither
	// depends on the taps, so RetapTags and SetTaps touch neither. Rows
	// [0, folded) have been folded in; only Gram slots read the state,
	// so prepareGram folds the rows appended since (foldRows) and a
	// transfer that never takes the Gram path never pays for it. Retire
	// and RetireTag subtract a folded row's pairs before the graph
	// forgets them. Both are laid out at the reserved tag cap's stride
	// kStride = max(K, reservedK), as are the per-position stripes
	// (states, posBits, ambiguous), so a Grow within the cap re-lays
	// nothing: the new tags' matched-filter entries are already zero.
	// Only a Grow past the cap re-lays every stripe (relayStripes).
	mf      []complex128
	cooc    []int32
	kStride int
	folded  int

	// Gram-space passes, staged by prepareGram once per slot and only
	// read by the position decodes and the slot's acceptance gate
	// (ConditionalMargin). gramOn reports that this slot's
	// restarts run in Gram space (gramRule). Ranks index activeTags:
	// gramNH[x·Ka+y] = N_xy·h_x, the active tags' Ka×Ka Gram (gathered
	// from cooc) scaled by the row rank's tap, which is every product a
	// Gram pass subtracts; gramTap and gramWPow are the ranked tags' taps
	// and |h|²·w constants. gramLocked lists (ascending) the locked tags
	// that share a live row with an active tag, the only locked tags
	// whose taps enter B (gramInput); gramLockCol[j·Ka+x] = N_{x,l}·h_l
	// for l = gramLocked[j], and gramLockNZ marks its nonzero counts.
	gramOn      bool
	gramNH      []complex128
	gramTap     []complex128
	gramWPow    []float64
	gramLocked  []int
	gramMark    []bool
	gramLockCol []complex128
	gramLockNZ  []bool
	// gramErr[p] is position p's adopted pass error on a Gram slot
	// (decodePosition): gramError at the position's decoded bits, the
	// acceptance gate's base error (conditionalMarginGram).
	gramErr []float64

	// The restart certificate's per-slot tables (see certify), staged by
	// prepareCert over the decode set on every slot that has restarts:
	// certCov lists (ascending) the ranks the certificate covers, those
	// with live rows and a nonzero tap; certA[x] = Σ_y |k_xy|, with
	// k_xy = 2·N_xy·Re(conj(h_x)·h_y) the pairwise coupling of ranks x and
	// y, zero on the diagonal; certK[x·Ka+y] = k_xy, a row of which
	// couplingRow stages the first time a slot reads it (certKRow[x]
	// reports it staged), since most slots need few rows or none;
	// certTie[x] = 0.15·|h_x|²·w_x, x's tie threshold, which the ambiguity
	// sweep (markAmbiguousPruned) reads too, and certTieMax the largest of
	// them, its prune bound; certH[x] = ‖h_x‖₁ =
	// |Re h_x| + |Im h_x|; certR[x] = Σ_y N_xy·‖h_y‖₁; and certOmega =
	// Σ_x ‖h_x‖₁·certR[x], which is Σ over the active rows of
	// (Σ_{active i in the row} ‖h_i‖₁)².
	certCov    []int
	certK      []float64
	certKRow   []bool
	certA      []float64
	certTie    []float64
	certTieMax float64
	certH      []float64
	certR      []float64
	certOmega  float64
	// certLambda[p] is position p's magnitude scale Λ at its last decode
	// (see certify), which the acceptance gate's certificate reuses for
	// its slack (gateCertified); staged only on slots with restarts.
	certLambda []float64
	// fullFan runs the restart fan at every position it decodes,
	// certified or not (a slot with an empty decode set decodes none);
	// the certificate is still evaluated and reported (workspace's
	// certified). Only tests set it: the reference side of the tests that
	// check what a certified position's skipped fan would have done.
	fullFan bool
	// noGateCert makes ConditionalMarginAtLeast run the gate's re-descent
	// on every call, certified or not. Only tests set it: the reference
	// side of the test that checks the gate certificate's decisions.
	noGateCert bool
	// fullWalk makes every slot's decode set the whole active list, as a
	// Gram slot's is, so the row path's kernels walk every unlocked tag
	// and only a slot without active tags skips its positions. Only tests
	// set it: the reference side of the decode-set twin.
	fullWalk bool
	// moved reports whether the last DecodeSlot changed any position's
	// bits (DecodeMoved).
	moved bool

	// posBits[p·kStride+i] is tag i's bit at position p in the current
	// joint decode — the init of the next slot's descent and the frame
	// source for the outer loop's CRC checks.
	posBits []bool
	// ambiguous caches each position's post-decode restart-tie flags
	// (active tags' entries only — a locked tag is never marked). Errors
	// and margins need no cache: the merge reads margins straight off the
	// per-position gain tables, and PosError reads or builds the residual.
	ambiguous []bool

	// ws is the position decode's restart workspace; cond is the
	// workspace of ConditionalMargin and PosError.
	ws   workspace
	cond workspace

	// stateValid reports whether the per-position row state matches the
	// graph. A row slot's decode sets it and a Gram slot's clears it
	// (finishSlot). Only AppendColliders' rows, DecodeSlot's locks and Grow's
	// empty columns are absorbed incrementally; every other model change
	// (SetTaps, RetapTags, Retire, RetireTag, InitPositions) clears it.
	// A row slot rebuilds every position's row state when it is clear; a
	// Gram slot never reads it.
	stateValid bool
	// retapIdx is RetapTags' changed-tag staging buffer.
	retapIdx []int

	// Coherence-window bookkeeping. rowPower[r] is the absorb-time
	// signal energy of row r (Σ_{i∈row} |h_i|²/2 — the expected
	// per-position contribution against fair bits); driftEnergy[r]
	// accumulates the model error RetapTags folds into the row (|Δh_i|²/2
	// per moved collider). driftTotal and sigTotal are their running
	// sums over the live rows: Retire subtracts a retired row's share,
	// and DriftFraction serves their ratio to the margin gate.
	rowPower    []float64
	driftEnergy []float64
	driftTotal  float64
	sigTotal    float64
	// trackDrift arms the banking: an unwindowed transfer never reads
	// DriftFraction, so AppendColliders, RetapTags and Retire all skip the
	// accounting unless the owner called TrackDrift(true) after Begin
	// (and before the first AppendColliders — toggling mid-transfer would
	// desynchronize the per-row series from the graph).
	trackDrift bool
	// retireRows stages RetireTag's removed-row indices across the
	// graph mutation.
	retireRows []int

	// Per-tag drift ledgers — the per-tag coherence window's margin-gate
	// input, armed by TrackTagDrift. tagCum[i] is the cumulative model
	// error RetapTags has banked against tag i (|Δh_i|²/2 summed over
	// move events, monotone within a transfer). tagLedger[i] interleaves,
	// per live row of tag i (aligned with the graph's colRows[i]), the
	// value of tagCum[i] when the row absorbed the tag and the
	// absorb-time signal energy |h_i|²/2; tagSnapSum and tagSig are their
	// running sums. Tag i's banked in-window drift is then
	// tagCum[i]·rows − tagSnapSum[i] — O(1) to serve, O(1) per retap to
	// maintain (where the pooled per-row banking walks the tag's whole
	// adjacency).
	trackTagDrift bool
	tagCum        []float64
	tagSnapSum    []float64
	tagSig        []float64
	tagLedger     [][]float64
	// orphan[r] is the unexplained signal energy tag retirement left in
	// live row r: when RetireTag removes a mover from a row, the mover's
	// transmission stays in the observation with nothing modeling it —
	// noise from every survivor's point of view.
	// tagOrphan[i] sums orphan over tag i's live rows, so
	// DriftFractionTag can charge each tag for the pollution it
	// actually decodes against, not just its own banked drift.
	orphan    []float64
	tagOrphan []float64

	// Per-DecodeSlot context, staged by prepareSlot for the position
	// decodes.
	curSlot   int
	curLocked []bool
	curBase   uint64

	// cost is the per-phase decode cost since the last TakeDecodeCost.
	// ConditionalMargin's gate descents are excluded — it counts the
	// decode itself.
	cost DecodeCost
}

// workspace is the scratch of a position decode: a descentState each
// row-path restart is built into from the position's state, the
// per-pass candidate block the ambiguity sweep revisits and the Gram
// path's per-pass vectors. All buffers are session-owned and reused
// across positions, slots and transfers.
type workspace struct {
	rst      descentState
	src      prng.Source
	allBits  []bool
	passErr  []float64
	pin      []bool
	resBack  []complex128
	sumBack  []complex128
	gainBack []float64
	signBack []float64
	maskBack []complex128
	dirtBack []int
	inDirt   []bool

	// Gram-space workspace, indexed by active-tag rank (see
	// Session.prepareGram): gB is the position's matched-filter output
	// B = Wᴴ·(y − locked set-bit taps) (gramInput); gS, gGain, gSign and
	// gBits are one pass's S = B − N·m, gains, flip signs and bits; gSet
	// lists the ranks gramError sums over; gPins lists the ranks a gate
	// descent holds fixed; passKey[q] is pass q's final active bits, bit
	// x for rank x, which fits since Ka ≤ gramMaxKa = 64 (restartsGram).
	gB      []complex128
	gS      []complex128
	gGain   []float64
	gSign   []float64
	gBits   []bool
	gSet    []int
	gPins   []int
	passKey []uint64

	// passes is the number of passes the last decoded position ran, whose
	// blocks allBits and passErr hold: 1 when its restarts were skipped,
	// 1 + restarts otherwise. certified reports whether its certificate
	// held.
	passes    int
	certified bool
}

// shape sizes the workspace for k tags, maxSlots symbols and the
// given pass count, reusing capacity.
func (w *workspace) shape(k, maxSlots, passes int) {
	w.resBack = grow(w.resBack, maxSlots)
	w.sumBack = grow(w.sumBack, k)
	w.gainBack = grow(w.gainBack, k)
	w.signBack = grow(w.signBack, k)
	w.maskBack = grow(w.maskBack, k)
	w.dirtBack = grow(w.dirtBack, k)
	w.inDirt = grow(w.inDirt, k)
	clear(w.inDirt)
	w.rst.residual = w.resBack[:0:maxSlots]
	w.rst.sum = w.sumBack
	w.rst.gain = w.gainBack
	w.rst.bSign = w.signBack
	w.rst.maskTap = w.maskBack
	w.rst.allocDirty(w.dirtBack, w.inDirt)
	w.allBits = grow(w.allBits, passes*k)
	w.passErr = grow(w.passErr, passes)
	w.pin = grow(w.pin, k)
	w.gB = grow(w.gB, k)
	w.gS = grow(w.gS, k)
	w.gGain = grow(w.gGain, k)
	w.gSign = grow(w.gSign, k)
	w.gBits = grow(w.gBits, k)
	w.gSet = grow(w.gSet, k)
	w.gPins = grow(w.gPins, k)
	w.passKey = grow(w.passKey, passes)
}

// shapeGram sizes the session's Gram buffers for a transfer of k tags,
// reusing capacity: gramRule admits at most min(k, gramMaxKa) active
// tags, so a reserved session's prepareGram re-slices the Gram table
// without allocating. The certificate's per-rank tables get the same
// size; a row slot with more active tags grows them once (prepareCert).
func (s *Session) shapeGram(k int) {
	ka := min(k, gramMaxKa)
	s.gramNH = grow(s.gramNH, ka*ka)
	s.gramTap = grow(s.gramTap, ka)
	s.gramWPow = grow(s.gramWPow, ka)
	s.gramLocked = grow(s.gramLocked, k)[:0]
	s.gramMark = grow(s.gramMark, k)
	clear(s.gramMark)
	s.certCov = grow(s.certCov, ka)[:0]
	s.certK = grow(s.certK, ka*ka)
	s.certKRow = grow(s.certKRow, ka)
	s.certA = grow(s.certA, ka)
	s.certTie = grow(s.certTie, ka)
	s.certH = grow(s.certH, ka)
	s.certR = grow(s.certR, ka)
}

// shapeMatchedFilter lays the matched-filter state out for a transfer
// of k tags and frameLen positions at stride max(k, reservedK) and
// zeroes it. prevK is the outgoing transfer's tag count: when the
// Gram's layout is kept, only its first prevK rows can hold a nonzero.
func (s *Session) shapeMatchedFilter(prevK, k, frameLen int) {
	stride := max(k, s.reservedK)
	if stride == s.kStride && len(s.cooc) == stride*stride {
		clear(s.cooc[:prevK*stride])
	} else {
		s.cooc = grow(s.cooc, stride*stride)
		clear(s.cooc)
		s.kStride = stride
	}
	s.mf = grow(s.mf, frameLen*stride)
	clear(s.mf)
	s.folded = 0
}

// gramInput sets gB to position p's matched-filter output over the
// ranked active tags, from the session's matched-filter state at the
// position's bits b: B_a = mf_a − Σ_l C_al·h_l over the locked tags l
// whose bit b sets, summed in ascending l and skipping zero counts.
// Only locked bits enter, and they never change within a slot, so B
// serves every pass of the position; only the locked tags that share a
// row with an active tag (gramLocked) can have C_al ≠ 0, and
// prepareGram has staged their C_al·h_l columns. O(Ka·locked), whatever
// the row count.
func (w *workspace) gramInput(s *Session, p int, b bits.Vector) {
	act := s.g.activeTags
	ka := len(act)
	B := w.gB[:ka]
	mf := s.mf[p*s.kStride : p*s.kStride+s.k]
	for x, a := range act {
		B[x] = mf[a]
	}
	for j, l := range s.gramLocked {
		if !b[l] {
			continue
		}
		nz := s.gramLockNZ[j*ka : (j+1)*ka]
		for x, v := range s.gramLockCol[j*ka : (j+1)*ka] {
			if nz[x] {
				B[x] -= v
			}
		}
	}
}

// gramStart sets one pass's Gram state at the bits in b (active
// entries): S = B − N·m with m_a = h_a on the set bits (gramNH's rows
// of the set ranks), the flip signs, the gains and the ranked bits, in
// O(Ka²).
func (w *workspace) gramStart(s *Session, b bits.Vector) {
	act := s.g.activeTags
	ka := len(act)
	nh, h, wp := s.gramNH, s.gramTap, s.gramWPow
	S, gain := w.gS[:ka], w.gGain[:ka]
	sign, lb := w.gSign[:ka], w.gBits[:ka]
	copy(S, w.gB[:ka])
	for x, i := range act {
		lb[x] = b[i]
		if !b[i] {
			sign[x] = 1
			continue
		}
		sign[x] = -1
		for y, v := range nh[x*ka : (x+1)*ka] {
			S[y] -= v
		}
	}
	for y := range gain {
		gain[y] = 2*(real(h[y])*real(S[y])+imag(h[y])*imag(S[y]))*sign[y] - wp[y]
	}
}

// gramDescend runs one pass's descent in Gram space from the bits in b
// (active entries), leaving the local optimum's bits there, and returns
// the flip count. It is descentState.descend over S = B − N·m: the same
// gains, scan order, eps and flip cap, with a flip of rank x moving S
// by gramNH's row x (subtracted when the bit is set, added when it is
// cleared) in O(Ka) instead of walking x's rows, and the next flip's
// argmax taken in the same loop that refreshes the gains. The ranks in
// pins never flip: their gains are held at −∞ (the decode passes nil;
// the acceptance gate pins its forced bit and the caller's locks), so a
// pinned descent rescans after the hold.
func (w *workspace) gramDescend(s *Session, b bits.Vector, maxFlips int, pins []int) int {
	w.gramStart(s, b)
	act := s.g.activeTags
	ka := len(act)
	nh, h, wp := s.gramNH, s.gramTap, s.gramWPow
	S, gain := w.gS[:ka], w.gGain[:ka]
	sign, lb := w.gSign[:ka], w.gBits[:ka]
	for _, x := range pins {
		gain[x] = math.Inf(-1)
	}
	best := argmaxAbove(gain, s.eps)
	flips := 0
	for ; flips < maxFlips && best >= 0; flips++ {
		set := !lb[best]
		lb[best] = set
		sign[best] = -sign[best]
		row := nh[best*ka : (best+1)*ka]
		best = -1
		bestG := s.eps
		for y, v := range row {
			if set {
				S[y] -= v
			} else {
				S[y] += v
			}
			gv := 2*(real(h[y])*real(S[y])+imag(h[y])*imag(S[y]))*sign[y] - wp[y]
			gain[y] = gv
			if gv > bestG {
				bestG = gv
				best = y
			}
		}
		if len(pins) > 0 {
			for _, x := range pins {
				gain[x] = math.Inf(-1)
			}
			best = argmaxAbove(gain, s.eps)
		}
	}
	for x, i := range act {
		b[i] = lb[x]
	}
	return flips
}

// argmaxAbove returns the first index of the largest gain above eps,
// or −1 when none is: the descent's (gain desc, index asc) scan.
func argmaxAbove(gain []float64, eps float64) int {
	best, bestG := -1, eps
	for y, gv := range gain {
		if gv > bestG {
			bestG = gv
			best = y
		}
	}
	return best
}

// gramInstall installs the workspace's gains (gramStart's, or a
// descent's) as the position state's — the same gain formula as gainOf,
// on S = B − N·m. Gains are all a Gram slot keeps: finishSlot's margin
// merge is their only reader, and a row slot rebuilds the rest.
func (w *workspace) gramInstall(s *Session, st *descentState) {
	for x, i := range s.g.activeTags {
		st.gain[i] = w.gGain[x]
	}
}

// gramError returns the active rows' ‖r‖² at bits b (active entries) in
// Gram form, less the constant E0 = ‖base‖² over the active rows:
// −Re(mᴴ(2B − N·m)), summed over the set ranks in ascending order: an
// unset rank's terms are exact zeros, and so are a set rank's whose tap
// is exactly zero (adding a zero never changes the sum, which is never
// −0), so neither changes a bit of the result. Every reader compares
// errors within one position (adoption, the ambiguity gaps), where E0
// cancels. It is a pure function of the bits, evaluated in a fixed
// order, so two passes that end on the same bits score exactly the
// same. The counts are symmetric integers, so gramNH[y·Ka+x] = N_xy·h_y
// exactly.
func (w *workspace) gramError(s *Session, b bits.Vector) float64 {
	act := s.g.activeTags
	ka := len(act)
	nh, h := s.gramNH, s.gramTap
	set, n := w.gSet[:ka], 0
	for x, i := range act {
		set[n] = x
		if b[i] {
			n++
		}
	}
	set = set[:n]
	acc := 0.0
	for _, x := range set {
		t := 2 * w.gB[x]
		for _, y := range set {
			t -= nh[y*ka+x]
		}
		acc += real(h[x])*real(t) + imag(h[x])*imag(t)
	}
	return -acc
}

// NewSession returns an empty Session; Begin shapes it.
func NewSession() *Session { return &Session{} }

var sessionPool = sync.Pool{New: func() any { return NewSession() }}

// GetSession returns a Session from the process-wide pool, warm from
// whatever transfer last used it — the per-transfer analogue of
// scratch.Get.
func GetSession() *Session { return sessionPool.Get().(*Session) }

// PutSession returns s to the pool. The caller must not use s
// afterwards.
func PutSession(s *Session) {
	if s == nil {
		return
	}
	sessionPool.Put(s)
}

// Close does nothing: a session holds no goroutine or other resource to
// release. It remains for callers written when sessions ran a position
// worker pool.
func (s *Session) Close() {}

// Reset returns the session to the empty pre-Begin state while keeping
// every buffer's capacity — the recycling entry point for session pools
// (engine.SessionManager). A Reset session carries no decoder state,
// taps or graph rows from its previous transfer (so a pooled session
// cannot leak one reader's state into the next), and a following
// same-shaped Begin allocates nothing: recycled sessions decode
// byte-identically to fresh ones, pinned by the pool-reuse regression
// tests.
func (s *Session) Reset() {
	s.g.Reset(0, nil)
	s.k, s.frameLen, s.maxSlots, s.restarts = 0, 0, 0, 0
	s.ys = s.ys[:0]
	s.states = s.states[:0]
	// An empty matched-filter state: the next Begin zeroes cooc whole.
	s.mf = s.mf[:0]
	s.cooc = s.cooc[:0]
	s.folded = 0
	s.rowPower = s.rowPower[:0]
	s.driftEnergy = s.driftEnergy[:0]
	s.driftTotal, s.sigTotal = 0, 0
	s.trackDrift, s.trackTagDrift = false, false
	s.orphan = s.orphan[:0]
	s.retireRows = s.retireRows[:0]
	s.stateValid = false
	s.curLocked = nil
	s.cost = DecodeCost{}
}

// Begin shapes the session for a transfer of k tags, frameLen bit
// positions and at most maxSlots collision slots, decoding with the
// given taps and restarts random re-initializations per position per
// slot. Buffer capacities survive from earlier transfers; a
// same-shaped Begin allocates nothing.
func (s *Session) Begin(k, frameLen, maxSlots, restarts int, taps []complex128) {
	s.shapeMatchedFilter(s.k, k, frameLen)
	s.k, s.frameLen, s.maxSlots = k, frameLen, maxSlots
	s.restarts = restarts
	s.eps = 1e-12
	s.g.Reset(k, taps)
	s.g.ReserveRows(maxSlots)
	adjK := k
	if s.reservedK > adjK {
		adjK = s.reservedK
	}
	s.g.ReserveAdjacency(adjK, maxSlots)

	s.ysBacking = grow(s.ysBacking, frameLen*maxSlots)
	s.ys = grow(s.ys, frameLen)
	s.resBacking = grow(s.resBacking, frameLen*maxSlots)
	if cap(s.states) < frameLen {
		next := make([]descentState, frameLen, scratch.CeilPow2(frameLen))
		s.states = next
	}
	s.states = s.states[:frameLen]
	for p := 0; p < frameLen; p++ {
		s.ys[p] = s.ysBacking[p*maxSlots : p*maxSlots : (p+1)*maxSlots]
		s.states[p].residual = s.resBacking[p*maxSlots : p*maxSlots : (p+1)*maxSlots]
	}
	s.layStripes()
	s.gramErr = grow(s.gramErr, frameLen)
	s.certLambda = grow(s.certLambda, frameLen)
	s.rowPower = grow(s.rowPower, maxSlots)[:0]
	s.driftEnergy = grow(s.driftEnergy, maxSlots)[:0]
	s.driftTotal, s.sigTotal = 0, 0
	s.trackDrift = false
	s.retireRows = grow(s.retireRows, maxSlots)[:0]
	s.trackTagDrift = false
	s.tagCum = grow(s.tagCum, k)
	clear(s.tagCum)
	s.tagSnapSum = grow(s.tagSnapSum, k)
	clear(s.tagSnapSum)
	s.tagSig = grow(s.tagSig, k)
	clear(s.tagSig)
	if cap(s.tagLedger) < k {
		next := make([][]float64, k, scratch.CeilPow2(k))
		copy(next, s.tagLedger)
		s.tagLedger = next
	}
	s.tagLedger = s.tagLedger[:k]
	for i := range s.tagLedger {
		s.tagLedger[i] = s.tagLedger[i][:0]
	}
	s.orphan = grow(s.orphan, maxSlots)[:0]
	s.tagOrphan = grow(s.tagOrphan, k)
	clear(s.tagOrphan)
	s.ws.shape(k, maxSlots, 1+restarts)
	s.cond.shape(k, maxSlots, 1)
	s.shapeGram(k)
	for i := 0; i < k; i++ {
		s.clearRowState(i)
	}
	s.stateValid = false
	s.cost = DecodeCost{}
}

// DecodeCost is a per-phase breakdown of descent work: pass-0 descents
// (one per position per decoded slot), the random restart passes that
// ran, and total bit flips across both. A position whose restart
// certificate holds (see certify) runs none of its restarts, and they
// are not counted; so RestartPasses/DescentPasses is the configured
// restart count times the share of positions left uncertified.
type DecodeCost struct {
	DescentPasses uint64 `json:"descent_passes"`
	RestartPasses uint64 `json:"restart_passes"`
	Flips         uint64 `json:"flips"`
}

// Add accumulates o into c.
func (c *DecodeCost) Add(o DecodeCost) {
	c.DescentPasses += o.DescentPasses
	c.RestartPasses += o.RestartPasses
	c.Flips += o.Flips
}

// TakeDecodeCost returns the decode cost accumulated since the previous
// call (or Begin/Reset) and resets the counters. Safe to call between
// slots; not concurrently with a running DecodeSlot.
func (s *Session) TakeDecodeCost() DecodeCost {
	c := s.cost
	s.cost = DecodeCost{}
	return c
}

// Reserve pre-sizes every buffer for a transfer of up to kCap tags,
// frameLen bit positions and maxSlots collision slots, without changing
// the session's logical shape. Call before Begin: a following Begin at
// K ≤ kCap and every mid-transfer Grow up to kCap then allocate
// nothing, killing the first-arrival allocation spike a session
// admitted below its roster cap would otherwise pay.
func (s *Session) Reserve(kCap, frameLen, maxSlots, restarts int) {
	if kCap < 1 {
		kCap = 1
	}
	s.g.ReserveTags(kCap)
	s.g.ReserveRows(maxSlots)
	s.g.ReserveAdjacency(kCap, maxSlots)
	s.reservedK = kCap
	ysN := frameLen * maxSlots
	s.ysBacking = grow(s.ysBacking, ysN)[:0]
	s.resBacking = grow(s.resBacking, ysN)[:0]
	s.ys = grow(s.ys, frameLen)[:0]
	s.sumBacking = grow(s.sumBacking, frameLen*kCap)[:0]
	s.gainBacking = grow(s.gainBacking, frameLen*kCap)[:0]
	s.bSignBacking = grow(s.bSignBacking, frameLen*kCap)[:0]
	s.dirtyBacking = grow(s.dirtyBacking, frameLen*kCap)[:0]
	s.inDirtyBacking = grow(s.inDirtyBacking, frameLen*kCap)[:0]
	s.posBits = grow(s.posBits, frameLen*kCap)[:0]
	s.ambiguous = grow(s.ambiguous, frameLen*kCap)[:0]
	s.gramErr = grow(s.gramErr, frameLen)[:0]
	s.certLambda = grow(s.certLambda, frameLen)[:0]
	s.mf = grow(s.mf, frameLen*kCap)[:0]
	s.cooc = grow(s.cooc, kCap*kCap)[:0]
	if cap(s.states) < frameLen {
		s.states = make([]descentState, 0, scratch.CeilPow2(frameLen))
	}
	s.retireRows = grow(s.retireRows, maxSlots)[:0]
	s.rowPower = grow(s.rowPower, maxSlots)[:0]
	s.driftEnergy = grow(s.driftEnergy, maxSlots)[:0]
	s.orphan = grow(s.orphan, maxSlots)[:0]
	s.tagCum = grow(s.tagCum, kCap)[:0]
	s.tagSnapSum = grow(s.tagSnapSum, kCap)[:0]
	s.tagSig = grow(s.tagSig, kCap)[:0]
	s.tagOrphan = grow(s.tagOrphan, kCap)[:0]
	if cap(s.tagLedger) < kCap {
		next := make([][]float64, len(s.tagLedger), scratch.CeilPow2(kCap))
		copy(next, s.tagLedger)
		s.tagLedger = next
	}
	s.ws.shape(kCap, maxSlots, 1+restarts)
	s.cond.shape(kCap, maxSlots, 1)
	s.shapeGram(kCap)
}

// InitPositions seeds every position's joint decode from the outer
// loop's initial per-tag estimates (est[i][p] = tag i's bit at position
// p) — the uniform random start of the paper's Alg. 1.
func (s *Session) InitPositions(est []bits.Vector) {
	if len(est) != s.k {
		panic(fmt.Sprintf("bp: InitPositions got %d estimates for %d tags", len(est), s.k))
	}
	for i, e := range est {
		if len(e) != s.frameLen {
			panic(fmt.Sprintf("bp: estimate %d has %d bits, frame has %d", i, len(e), s.frameLen))
		}
		for p := 0; p < s.frameLen; p++ {
			s.posBits[p*s.kStride+i] = bool(e[p])
		}
		if len(s.g.colRows[i]) == 0 && !s.g.deactivated[i] {
			s.clearRowState(i)
		}
	}
	s.stateValid = false
}

// clearRowState sets tag i's per-position row state to that of a tag
// without live rows at its current bits: a zero S-sum, a zero gain and
// the flip sign of its bit at every position, by value what a rebuild
// derives for it (rederive's gain is ±0). No decode kernel writes a tag
// outside the decode set, so a rowless tag's state is written where its
// bits or rows change outside the kernels: Begin, InitPositions, its last
// row leaving (snapRowless) and an adopted restart
// (descentState.resetRowless). It is then current whenever the tag
// gains a row, and a slot with an empty decode set needs no rebuild.
func (s *Session) clearRowState(i int) {
	for p := range s.states {
		st := &s.states[p]
		st.sum[i] = 0
		st.gain[i] = 0
		st.bSign[i] = float64(1 - 2*bits.Index(s.posBits[p*s.kStride+i]))
	}
}

// SetTaps installs refined channel taps. The cached residuals and gains
// were derived under the old taps, so the next DecodeSlot re-derives
// every position from its current bits — the price of decision-directed
// channel tracking, paid only on slots that actually re-tap. The
// matched-filter state does not depend on the taps and is untouched.
func (s *Session) SetTaps(taps []complex128) {
	s.g.SetTaps(taps)
	s.stateValid = false
}

// RetapTags installs new channel taps for the listed tags (ascending):
// taps holds a tap for every tag, and only the listed tags' are
// compared and installed, in O(listed). A driver lists the tags whose
// taps can still be read; a quiescent tag (Quiescent) may keep the tap
// it had, which changes no output. A call that moves any tap banks the
// move's drift (see DriftFraction and DriftFractionTag) and invalidates
// the cached per-position state: the next DecodeSlot re-derives every
// position from its observations under the new taps (from the
// matched-filter state, which a retap leaves untouched, on a Gram
// slot), and PosError and ConditionalMargin are invalid until then. A
// call that moves no tap is a no-op and leaves the state valid. Call
// order per slot is retap → append → decode → gates, as the transfer
// loops do.
func (s *Session) RetapTags(taps []complex128, tags []int) {
	if len(taps) != s.k {
		panic(fmt.Sprintf("bp: RetapTags got %d taps for %d tags", len(taps), s.k))
	}
	changed := s.retapIdx[:0]
	for _, i := range tags {
		if taps[i] != s.g.taps[i] {
			changed = append(changed, i)
		}
	}
	s.retapIdx = changed[:0]
	if len(changed) == 0 {
		return
	}
	// Every tap move turns the rows absorbed under the old tap into
	// model error: bank |Δh|²/2 per affected live row (the expected
	// per-position mismatch against a fair bit) for the windowed margin
	// gate's drift estimate (DriftFraction). Retire reclaims a row's
	// share when it leaves the window. Armed by TrackDrift — an
	// unwindowed transfer never reads the estimate, so it skips the
	// O(nnz) accounting.
	if s.trackDrift {
		for _, i := range changed {
			d := s.g.taps[i] - taps[i]
			dd := 0.5 * (real(d)*real(d) + imag(d)*imag(d))
			if w := len(s.g.colRows[i]); w > 0 && dd > 0 {
				for _, row := range s.g.colRows[i] {
					s.driftEnergy[row] += dd
				}
				s.driftTotal += dd * float64(w)
			}
		}
	}
	// The per-tag ledger banks the same |Δh|²/2 against the mover alone,
	// in O(1): each of its live in-window rows is charged implicitly
	// (drift_i = tagCum·rows − snapSum, and rows absorbed later snapshot
	// the larger cum, so they are never charged for this move).
	if s.trackTagDrift {
		for _, i := range changed {
			d := s.g.taps[i] - taps[i]
			s.tagCum[i] += 0.5 * (real(d)*real(d) + imag(d)*imag(d))
		}
	}
	for _, i := range changed {
		s.g.RetapTag(i, taps[i])
	}
	s.stateValid = false
}

// layStripes lays the per-position tag stripes out at stride kStride
// for the session's frameLen and K: the S-sum, gain, flip-sign and
// dirty-list backings, posBits and ambiguous, with each position's state
// slices bound to its stripe (length K, capacity kStride). Contents are
// not preserved; Begin re-derives them, and relayStripes carries them
// over itself.
func (s *Session) layStripes() {
	n := s.frameLen * s.kStride
	s.sumBacking = grow(s.sumBacking, n)
	s.gainBacking = grow(s.gainBacking, n)
	s.bSignBacking = grow(s.bSignBacking, n)
	s.dirtyBacking = grow(s.dirtyBacking, n)
	s.inDirtyBacking = grow(s.inDirtyBacking, n)
	clear(s.inDirtyBacking)
	s.posBits = grow(s.posBits, n)
	s.ambiguous = grow(s.ambiguous, n)
	s.bindStripes()
}

// bindStripes binds every position's state slices to its stripe of the
// backings at stride kStride, with length K.
func (s *Session) bindStripes() {
	stride, k := s.kStride, s.k
	for p := range s.states {
		lo, hi := p*stride, (p+1)*stride
		st := &s.states[p]
		st.sum = s.sumBacking[lo : lo+k : hi]
		st.gain = s.gainBacking[lo : lo+k : hi]
		st.bSign = s.bSignBacking[lo : lo+k : hi]
		st.allocDirty(s.dirtyBacking[lo:hi], s.inDirtyBacking[lo:hi])
	}
}

// restripe re-lays a per-position striped backing from stride oldS to
// stride newS ≥ oldS, preserving each stripe's first keep entries; the
// rest of each new stripe is garbage the caller initializes.
func restripe[T any](buf []T, frameLen, oldS, newS, keep int) []T {
	need := frameLen * newS
	if cap(buf) < need {
		next := make([]T, need, scratch.CeilPow2(need))
		for p := 0; p < frameLen; p++ {
			copy(next[p*newS:p*newS+keep], buf[p*oldS:p*oldS+keep])
		}
		return next
	}
	buf = buf[:need]
	// In place: destination stripes sit at or above their sources, so a
	// top-down walk never clobbers an uncopied source (copy is memmove).
	for p := frameLen - 1; p >= 0; p-- {
		copy(buf[p*newS:p*newS+keep], buf[p*oldS:p*oldS+keep])
	}
	return buf
}

// relayStripes moves every per-position stripe and the matched-filter
// state from stride kStride to the wider newS, keeping the first K
// entries of each: a Grow past the reserved tag cap. The new tags'
// matched-filter entries are zero; their stripe entries are Grow's to
// set.
func (s *Session) relayStripes(newS int) {
	old, k, fl := s.kStride, s.k, s.frameLen
	s.sumBacking = restripe(s.sumBacking, fl, old, newS, k)
	s.gainBacking = restripe(s.gainBacking, fl, old, newS, k)
	s.bSignBacking = restripe(s.bSignBacking, fl, old, newS, k)
	s.posBits = restripe(s.posBits, fl, old, newS, k)
	// Ambiguity flags and dirty lists carry nothing across slots: every
	// decode rewrites the active tags' flags, and the dirty marks are
	// clear between flips.
	s.ambiguous = grow(s.ambiguous, fl*newS)
	s.dirtyBacking = grow(s.dirtyBacking, fl*newS)
	s.inDirtyBacking = grow(s.inDirtyBacking, fl*newS)
	clear(s.inDirtyBacking)
	cooc := make([]int32, newS*newS, scratch.CeilPow2(newS*newS))
	for a := 0; a < k; a++ {
		copy(cooc[a*newS:a*newS+k], s.cooc[a*old:a*old+k])
	}
	mf := make([]complex128, fl*newS, scratch.CeilPow2(fl*newS))
	for p := 0; p < fl; p++ {
		copy(mf[p*newS:p*newS+k], s.mf[p*old:p*old+k])
	}
	s.cooc, s.mf, s.kStride = cooc, mf, newS
	s.bindStripes()
}

// Grow admits tags into a mid-transfer session — the dynamic-population
// path, where a tag identified mid-round joins the decode without
// restarting it. Each new tag gets the given decoder tap and initial
// per-position bit estimates (est[j][p] = new tag j's starting bit at
// position p). The graph gains empty active columns (the tag was silent
// in every absorbed row), and all cached residuals, S-sums, gains and
// locks of the existing tags survive: the next DecodeSlot continues
// their descent exactly where it left off. Within the stride kStride
// (Reserve's tag cap) Grow writes only the new tags' entries and
// allocates nothing; past it, every per-position stripe and the
// matched-filter state are re-laid at the new K (relayStripes), which
// may allocate.
func (s *Session) Grow(taps []complex128, est []bits.Vector) {
	n := len(taps)
	if n == 0 {
		return
	}
	if len(est) != n {
		panic(fmt.Sprintf("bp: Grow got %d estimates for %d new tags", len(est), n))
	}
	for j, e := range est {
		if len(e) != s.frameLen {
			panic(fmt.Sprintf("bp: Grow estimate %d has %d bits, frame has %d", j, len(e), s.frameLen))
		}
	}
	oldK := s.k
	k2 := oldK + n
	for _, h := range taps {
		s.g.AddTag(h)
	}
	if k2 > s.kStride {
		s.relayStripes(k2)
	}
	growTagFloats := func(buf []float64) []float64 {
		if cap(buf) < k2 {
			next := make([]float64, k2, scratch.CeilPow2(k2))
			copy(next, buf)
			return next
		}
		buf = buf[:k2]
		clear(buf[oldK:])
		return buf
	}
	s.tagCum = growTagFloats(s.tagCum)
	s.tagSnapSum = growTagFloats(s.tagSnapSum)
	s.tagSig = growTagFloats(s.tagSig)
	s.tagOrphan = growTagFloats(s.tagOrphan)
	if cap(s.tagLedger) < k2 {
		next := make([][]float64, k2, scratch.CeilPow2(k2))
		copy(next, s.tagLedger)
		s.tagLedger = next
	}
	s.tagLedger = s.tagLedger[:k2]
	for i := oldK; i < k2; i++ {
		s.tagLedger[i] = s.tagLedger[i][:0]
	}
	s.k = k2

	stride := s.kStride
	for p := 0; p < s.frameLen; p++ {
		st := &s.states[p]
		st.sum = st.sum[:k2]
		st.gain = st.gain[:k2]
		st.bSign = st.bSign[:k2]
		pb := s.posBits[p*stride : p*stride+k2]
		for j := range est {
			i := oldK + j
			bit := bool(est[j][p])
			pb[i] = bit
			st.sum[i] = 0
			if bit {
				st.bSign[i] = -1
			} else {
				st.bSign[i] = 1
			}
			// No observations constrain the new tag yet: w = 0, so its
			// gain is exactly 0 — never worth flipping, never −∞.
			st.gain[i] = st.gainOf(&s.g, i)
		}
	}
	s.ws.shape(k2, s.maxSlots, 1+s.restarts)
	s.cond.shape(k2, s.maxSlots, 1)
	s.shapeGram(k2)
}

// AppendColliders feeds the session one new collision slot: its
// colliders (ascending tag indices) and one observed symbol per bit
// position. The graph grows by one row in O(colliders); each position's
// cached residual absorbs the new observation lazily at its next
// row-path decode, in O(colliders), and the matched-filter state at the
// next Gram slot (foldRows).
func (s *Session) AppendColliders(cols []int, obs []complex128) {
	if len(obs) != s.frameLen {
		panic(fmt.Sprintf("bp: AppendColliders got %d observations for frame length %d", len(obs), s.frameLen))
	}
	if s.g.L >= s.maxSlots {
		panic("bp: AppendColliders past the session's maxSlots")
	}
	s.g.AppendRow(cols)
	if s.trackDrift {
		rp := 0.0
		for _, i := range s.g.rowCols[s.g.L-1] {
			rp += 0.5 * s.g.tapPower[i]
		}
		s.rowPower = append(s.rowPower, rp)
		s.driftEnergy = append(s.driftEnergy, 0)
		s.sigTotal += rp
	}
	if s.trackTagDrift {
		s.orphan = append(s.orphan, 0)
		for _, i := range s.g.rowCols[s.g.L-1] {
			sig := 0.5 * s.g.tapPower[i]
			s.tagLedger[i] = append(s.tagLedger[i], s.tagCum[i], sig)
			s.tagSnapSum[i] += s.tagCum[i]
			s.tagSig[i] += sig
		}
	}
	for p, o := range obs {
		s.ys[p] = append(s.ys[p], o)
	}
}

// foldRows adds the live rows appended since the last fold to the
// matched-filter state: every collider's output gains y_p[r] at every
// position, and the co-occurrence Gram counts every collider pair once,
// in O(frameLen·colliders + colliders²) per row.
func (s *Session) foldRows() {
	g := &s.g
	cooc, stride := s.cooc, s.kStride
	for r := max(s.folded, g.retired); r < g.L; r++ {
		cols := g.rowCols[r]
		for _, a := range cols {
			row := cooc[a*stride : a*stride+s.k]
			for _, b := range cols {
				row[b]++
			}
		}
		for p := 0; p < s.frameLen; p++ {
			y := s.ys[p][r]
			mf := s.mf[p*stride : p*stride+s.k]
			for _, i := range cols {
				mf[i] += y
			}
		}
	}
	s.folded = g.L
}

// dropPairs subtracts folded row r's (tag, collider) pairs from the
// matched-filter state: for every listed tag a, a's output loses y_p[r]
// at every position and the Gram's row and column a lose one count per
// collider b in the row. Listing every collider drops the whole row;
// listing one tag drops just its participation. Call it before the
// graph forgets the pairs.
func (s *Session) dropPairs(r int, tags []int) {
	g := &s.g
	stride := s.kStride
	whole := len(tags) == len(g.rowCols[r])
	for _, a := range tags {
		for _, b := range g.rowCols[r] {
			s.cooc[a*stride+b]--
			if !whole && b != a {
				s.cooc[b*stride+a]--
			}
		}
		for p := 0; p < s.frameLen; p++ {
			s.mf[p*stride+a] -= s.ys[p][r]
		}
	}
}

// snapRowless sets tag i's matched-filter outputs to exact zero: the
// state of a tag whose last live row is leaving. The subtractions that
// removed its rows leave rounding dust in mf, and a rowless tag's S-sum
// is exactly zero in the row path; left in place, the dust would
// surface as a gain of order 1e-12, which the absolute flip threshold
// eps reads as evidence. Same reason RetireRow snaps |h|²·w. Its row and
// column of the co-occurrence Gram need no snap: the integer counts
// reach exact zero with its last row. An unlocked tag's row state is
// cleared too (clearRowState): the tag leaves the decode set.
func (s *Session) snapRowless(i int) {
	stride := s.kStride
	for p := 0; p < s.frameLen; p++ {
		s.mf[p*stride+i] = 0
	}
	if !s.g.deactivated[i] {
		s.clearRowState(i)
	}
}

// Retire drops every collision slot up to and including throughSlot
// (1-based) from the decode — the symmetric inverse of Grow's and
// AppendColliders' accretion, turning "the graph only grows" into "the
// graph is a sliding window". Each retired row leaves the graph's
// adjacency (Graph.RetireRow; indices never shift, so all cached
// per-row state stays aligned) and takes its share of the matched-filter
// state and the drift bookkeeping with it. A call that retires anything
// invalidates the cached per-position state: the next DecodeSlot
// re-derives every position from the surviving rows' observations, and
// PosError and ConditionalMargin are invalid until then. A call with
// nothing to retire is a no-op and leaves the state valid. Call it
// between a DecodeSlot and the next AppendColliders.
//
// Returns the number of rows retired; retiring everything is legal
// (the decoder then knows nothing and margins collapse to zero until
// new slots arrive).
func (s *Session) Retire(throughSlot int) int {
	g := &s.g
	hi := min(throughSlot, g.L)
	lo := g.retired
	if hi <= lo {
		return 0
	}
	for r := lo; r < hi; r++ {
		if r < s.folded {
			s.dropPairs(r, g.rowCols[r])
		}
		for _, a := range g.rowCols[r] {
			if len(g.colRows[a]) == 1 {
				s.snapRowless(a)
			}
		}
		if s.trackDrift {
			s.driftTotal -= s.driftEnergy[r]
			s.sigTotal -= s.rowPower[r]
		}
		if s.trackTagDrift {
			// The retiring row heads every surviving collider's ledger
			// (rows retire oldest-first, per tag and globally alike).
			for _, i := range g.rowCols[r] {
				led := s.tagLedger[i]
				s.tagSnapSum[i] -= led[0]
				s.tagSig[i] -= led[1]
				copy(led, led[2:])
				s.tagLedger[i] = led[:len(led)-2]
				s.tagOrphan[i] -= s.orphan[r]
			}
		}
		g.RetireRow()
	}
	s.stateValid = false
	return hi - lo
}

// Retired returns the number of collision slots retired so far.
func (s *Session) Retired() int { return s.g.retired }

// RetireTag drops tag's participation in every collision slot up to and
// including throughSlot (1-based) from the decode — the per-tag
// coherence window. Where Retire forgets whole rows for every tag,
// RetireTag forgets only one mover's contributions: the rows stay live
// as evidence for its (stationary) neighbors, who would otherwise
// discard good observations whenever any mover's coherence collapses.
//
// Each removed (row, tag) pair leaves the matched-filter state and the
// graph's adjacency (Graph.RetireTagRows); a row whose last active
// collider was the retired tag freezes exactly as when its last
// collider locks. A call that removes any row invalidates the cached
// per-position state: the next DecodeSlot re-derives every position
// from the surviving model, and PosError and ConditionalMargin are
// invalid until then. A call that removes no row is a no-op and leaves
// the state valid. Removing a tag's every row is legal: like a tag that
// just joined, its margins collapse to zero until it participates
// again. Like Retire, call it between a DecodeSlot and the next
// AppendColliders.
//
// Returns the number of rows the tag was removed from.
func (s *Session) RetireTag(tag, throughSlot int) int {
	g := &s.g
	hi := min(throughSlot, g.L)
	cr := g.colRows[tag]
	n := 0
	for n < len(cr) && cr[n] < hi {
		n++
	}
	if n == 0 {
		return 0
	}
	rows := append(s.retireRows[:0], cr[:n]...)
	s.retireRows = rows[:0]
	one := [1]int{tag}
	for _, r := range rows {
		if r < s.folded {
			s.dropPairs(r, one[:])
		}
	}
	g.RetireTagRows(tag, hi)
	if len(g.colRows[tag]) == 0 {
		s.snapRowless(tag)
	}
	if s.trackTagDrift {
		// The removed rows head the tag's ledger, which holds one entry
		// pair per live row.
		led := s.tagLedger[tag]
		for x, row := range rows {
			s.tagSnapSum[tag] -= led[2*x]
			s.tagSig[tag] -= led[2*x+1]
			// The removed pair's signal stays in the observation with
			// nothing modeling it: bank it as orphan energy against the
			// row, charged to every survivor still decoding the row —
			// their residuals carry it as noise from here on.
			s.tagOrphan[tag] -= s.orphan[row]
			e := led[2*x+1]
			s.orphan[row] += e
			for _, j := range g.rowCols[row] {
				s.tagOrphan[j] += e
			}
		}
		copy(led, led[2*n:])
		s.tagLedger[tag] = led[:len(led)-2*n]
	}
	s.stateValid = false
	return n
}

// TrackTagDrift arms (or disarms) the per-tag drift ledgers behind
// DriftFractionTag — the per-tag analogue of TrackDrift, with the same
// contract: toggle after Begin and before the first AppendColliders. Arming
// pre-sizes each tag's ledger for the transfer's slot budget (a
// never-windowed tag's ledger grows for the whole round), so the
// per-slot cycle stays allocation-free from the first transfer on.
func (s *Session) TrackTagDrift(on bool) {
	s.trackTagDrift = on
	if on {
		for i := range s.tagLedger {
			if cap(s.tagLedger[i]) < 2*s.maxSlots {
				s.tagLedger[i] = make([]float64, 0, 2*scratch.CeilPow2(s.maxSlots))
			}
		}
	}
}

// DriftFractionTag estimates the model error tag i decodes against,
// as a fraction of its live in-window rows' absorb-time signal energy
// — the per-tag analogue of DriftFraction, and the per-tag margin
// gate's deflator. Two terms: the drift RetapTags banked against the
// tag's own tap (|Δh_i|²/2 per move, reclaimed by Retire and RetireTag
// as rows age out), plus the orphan energy the retirement of OTHER tags
// left unmodeled in rows the tag still decodes — a parked tag among
// windowed movers is clean of drift but polluted by their orphans, and
// its honest margins deflate accordingly.
func (s *Session) DriftFractionTag(i int) float64 {
	n := len(s.tagLedger[i]) / 2
	if n == 0 || s.tagSig[i] <= 0 {
		return 0
	}
	bad := s.tagCum[i]*float64(n) - s.tagSnapSum[i]
	if bad < 0 {
		bad = 0
	}
	bad += s.tagOrphan[i]
	if bad <= 0 {
		return 0
	}
	return bad / s.tagSig[i]
}

// TrackDrift arms (or disarms) the model-error accounting behind
// DriftFraction. Begin resets it off; a windowed transfer turns it on
// before the first slot, everything else skips the per-retap cost.
func (s *Session) TrackDrift(on bool) { s.trackDrift = on }

// DriftFraction estimates the accumulated channel-model error carried
// by the live rows, as a fraction of their absorb-time signal energy:
// RetapTags (when armed via TrackDrift) banks |Δh|²/2 per moved tap per
// absorbed row, Retire takes a retired row's share back out. The
// rate-adaptation margin gate deflates its windowed acceptance
// thresholds by 1/(1 + 2·DriftFraction()) — drift eats margin, so an
// honest frame's worst-position margin sits below its static-channel
// value in proportion to the model error — while the disjoint-window
// double confirmation carries the false-accept protection (see
// ratedapt's gatePolicy).
func (s *Session) DriftFraction() float64 {
	if s.sigTotal <= 0 || s.driftTotal <= 0 {
		return 0
	}
	return s.driftTotal / s.sigTotal
}

// Degree returns the participation count of tag i.
func (s *Session) Degree(i int) int { return s.g.Degree(i) }

// UnlockedTags lists (ascending) the tags the last DecodeSlot decoded as
// unlocked: every tag not in its locked argument. A live view, valid
// until the next DecodeSlot.
func (s *Session) UnlockedTags() []int { return s.g.activeTags }

// Quiescent reports whether no reader of the session looks at tag i's
// tap again, provided the tag joins no new row (a departed tag): it is
// locked (deactivated by a DecodeSlot), lies on no active row, and lies
// on no live row at all while global drift banking is armed
// (TrackDrift). O(1). A quiescent tag stays quiescent: a lock is
// permanent, a row never reactivates and, with no new rows, the live
// rows only retire. Its tap may then stay fixed (channel.Process.Freeze,
// RetapTags) with every output unchanged.
//
// Why. These are every reader of a tap:
//   - Residuals: the row path scores, descends and re-descends (the
//     gates' ConditionalMargin) on the active rows only; a rebuild may
//     also write frozen rows, whose entries nothing reads. Tag i lies on
//     no active row.
//   - The matched-filter input: gramInput subtracts the columns of the
//     locked tags that share a live row with an active tag
//     (gramLocked), and any row holding an active tag is active.
//   - The restart certificate and the ambiguity sweep read the decode
//     set's taps, all unlocked.
//   - DriftFraction: RetapTags banks |Δh|²/2 on every live row of a moved
//     tag; armed, the rule asks for no live row, so nothing is banked.
//   - DriftFractionTag and the orphan ledger: a move banks into tag i's
//     own tagCum, which only DriftFractionTag(i) reads, and the gates
//     read it for unlocked tags only; the orphan ledger banks the
//     absorb-time signal |h|²/2, fixed before the tag departed.
//   - marginOf and wPow: a locked tag's margin is marginOf(i, −∞), +∞
//     when |h_i|²·w_i > 0 and 0 when it is 0, which depends on the tap
//     only through whether it is exactly zero.
//   - PosError adds the frozen rows' energy, tag i's rows included. No
//     production path calls it; the tests that do drive a Session
//     directly, without freezing.
func (s *Session) Quiescent(i int) bool {
	g := &s.g
	return g.deactivated[i] && g.actDeg[i] == 0 && (!s.trackDrift || len(g.colRows[i]) == 0)
}

// Slots returns the number of collision slots absorbed so far.
func (s *Session) Slots() int { return s.g.L }

// Ys exposes the per-position observation store (ys[p][l] = position
// p's symbol in slot l) for the channel-refinement fit. Callers must
// not modify it.
func (s *Session) Ys() [][]complex128 { return s.ys }

// PosBits returns position p's current joint decode (one bit per tag),
// aliasing the session's state: valid until the next DecodeSlot.
func (s *Session) PosBits(p int) []bool {
	return s.posBits[p*s.kStride : p*s.kStride+s.k]
}

// PosError returns ‖y − D·H·b‖² over the live rows at position p's
// current decode: the active rows' energy the row path scores passes
// by, plus the frozen rows' (no active collider) energy, recomputed
// here in O(frozen nnz). The active rows' energy is read off the
// position's residual when the row state is current (after a row
// slot), and otherwise built from the position's bits in the
// ConditionalMargin workspace. It is a pure read: it writes no position
// state, so calling it never changes a later decode. Valid from a
// DecodeSlot until the next mutation: an AppendColliders, or a RetapTags,
// Retire or RetireTag that changes anything. Call it from the session's
// owning goroutine.
func (s *Session) PosError(p int) float64 {
	g := &s.g
	b := s.PosBits(p)
	st := &s.states[p]
	if !s.stateValid {
		st = &s.cond.rst
		s.rebuildPosition(p, st, b, s.curLocked)
	}
	e := st.normSqActive(g)
	for row := g.retired; row < g.L; row++ {
		if len(g.rowActive[row]) > 0 {
			continue
		}
		x := s.ys[p][row]
		for _, i := range g.rowCols[row] {
			if b[i] {
				x -= g.taps[i]
			}
		}
		e += real(x)*real(x) + imag(x)*imag(x)
	}
	return e
}

// SlotJob is one session's staged per-slot decode — the arguments its
// owner passes to DecodeSlot, held as data so a driver can stage a slot
// in one place and run its decode in another.
type SlotJob struct {
	S         *Session
	Slot      int
	Locked    []bool
	Base      uint64
	MinMargin []float64
	Ambiguous []bool
}

// DecodeSlot decodes every bit position against the slot just appended:
// pass 0 continues each position's cached descent (or re-derives it
// when the model changed), then the configured number of random
// re-initializations, keeping the lowest-error candidate. base is the
// transfer's decode-PRNG root; slot the 1-based slot index — every
// position derives stream Mix3(base, slot, p).
//
// minMargin[i] receives the minimum over positions of tag i's flip
// margin (see marginOf); anyAmbiguous[i] reports whether any position's
// restarts exposed a near-tie on tag i. Both must have one entry per
// tag.
//
// The ambiguity flag is the decoder's defense against signed near-zero
// subset sums of taps (Σ ±h_i ≈ 0): a coordinated multi-bit flip over
// such a subset is invisible to the observations, defeats single-flip
// margins, and cannot be traversed by greedy conditional
// re-optimization — but independent random restarts land in both basins
// and expose the tie. A position marks tag i when another pass ended
// with an error less than 0.15·|h_i|²·w_i above the best pass's yet
// disagrees on bit i — a gap well below the |h_i|²·w_i an honest
// single-bit error would create (see markAmbiguousPruned). The restarts
// run only where they could find such a pass: a position whose pass-0
// optimum carries a certificate (certify), a proof from its flip
// margins and the slot's pairwise tag couplings that every other bit
// pattern scores worse by more than every disagreeing tag's tie
// threshold, skips them. No restart could be adopted there or mark a
// tag, so on a Gram slot the outputs are bitwise those of the full
// fan; on a row slot the skip also drops the adoptions of restarts that
// end on pass 0's bits, or differ from them only on tags with no rows,
// whose residual norm came out an ulp lower.
//
// Each position decodes only the decode set, the unlocked tags with live
// rows (Graph.decodeTags): a tag without rows has nothing to decide, and
// its margin is 0. A slot whose decode set is empty (no unlocked tag has
// a row, so no row is active) decodes no position: every pass would end
// where it started, and the certificate would hold with nothing to
// cover. It counts its descent passes all the same.
func (s *Session) DecodeSlot(slot int, locked []bool, base uint64, minMargin []float64, anyAmbiguous []bool) {
	if len(minMargin) != s.k || len(anyAmbiguous) != s.k {
		panic(fmt.Sprintf("bp: DecodeSlot outputs have lengths %d and %d, want K %d", len(minMargin), len(anyAmbiguous), s.k))
	}
	s.prepareSlot(slot, locked, base)
	if len(s.g.decodeTags) > 0 {
		for p := 0; p < s.frameLen; p++ {
			s.decodePosition(p)
		}
	} else {
		// No row is active, so each position's decode would only rebuild
		// or absorb frozen rows, which no pass reads again (the next
		// decode absorbs them with the same entries), and rewrite the
		// rowless tags' state, which is already current (clearRowState).
		s.cost.DescentPasses += uint64(s.frameLen)
	}
	s.finishSlot(minMargin, anyAmbiguous)
}

// DecodeMoved reports whether the last DecodeSlot changed any
// position's bits: a pass-0 flip, or an adopted restart. When it reports
// false every PosBits is what it was before that decode.
func (s *Session) DecodeMoved() bool { return s.moved }

// prepareSlot runs DecodeSlot's preamble: newly locked tags leave the
// graph's fan-out and the gain tables, and the per-slot context (slot,
// locked set, PRNG base, active-row snapshot and decode set, Gram
// constants, the certificate's tables and tie thresholds) is staged.
// After it, every position is an independent decode unit until
// finishSlot merges the results. The Gram constants outlive the
// position decodes: a Gram slot's acceptance gate re-descends on them,
// so no position's residual is rebuilt for it.
func (s *Session) prepareSlot(slot int, locked []bool, base uint64) {
	if locked != nil && len(locked) != s.k {
		panic(fmt.Sprintf("bp: DecodeSlot locked length %d != K %d", len(locked), s.k))
	}
	// Deactivate newly locked tags and pin their gains at −∞ before the
	// position decodes: a frozen tag's fan-out entries are dead from here
	// on (§6d), and no position state carries anything else about it —
	// the residual already holds its set bits' taps, gramInput subtracts
	// them from the matched-filter outputs, and a rebuild re-derives
	// active tags only. Only an active tag can be newly locked, so the
	// scan walks the active list, which DeactivateTag shrinks in place.
	if locked != nil {
		for x := 0; x < len(s.g.activeTags); {
			i := s.g.activeTags[x]
			if !locked[i] {
				x++
				continue
			}
			s.g.DeactivateTag(i)
			for p := 0; p < s.frameLen; p++ {
				s.states[p].lockTag(i)
			}
		}
	}

	s.curSlot = slot
	s.curLocked = locked
	s.curBase = base
	s.moved = false
	g := &s.g
	g.SnapshotActive()
	if s.fullWalk {
		g.decodeTags, g.rowlessTags = g.activeTags, g.rowlessTags[:0]
	}
	s.gramOn = s.restarts > 0 && gramRule(len(g.activeTags), len(g.flatTags))
	if s.gramOn {
		// The Gram kernels rank every active tag. rowlessTags keeps the
		// rowless ones, whose bits an adopted restart still moves
		// (resetRowless).
		g.decodeTags = g.activeTags
		s.prepareGram()
	}
	if s.restarts > 0 {
		s.prepareCert()
	}
}

// prepareCert stages the restart certificate's per-slot tables (see the
// Session fields certCov…certOmega) over the decode set from the
// co-occurrence counts, in O(Ka²): on a row slot it first folds the rows
// appended since the last fold (foldRows), so the counts are current.
// The counts are exact integers over the live rows, and a row holding an
// active tag is an active row, so N_xy is the number of active rows x
// and y share. A slot with an empty decode set stages empty tables and
// leaves its rows unfolded: their colliders are all locked, whose
// matched-filter outputs no kernel reads again, and the exact integer
// counts do not depend on when a row is folded.
func (s *Session) prepareCert() {
	g := &s.g
	act := g.decodeTags
	ka := len(act)
	if ka == 0 {
		s.certCov = s.certCov[:0]
		s.certTieMax, s.certOmega = 0, 0
		return
	}
	s.foldRows()
	cov := grow(s.certCov, ka)[:0]
	s.certK = grow(s.certK, ka*ka)
	s.certKRow = grow(s.certKRow, ka)
	clear(s.certKRow)
	s.certA = grow(s.certA, ka)
	s.certTie = grow(s.certTie, ka)
	s.certH = grow(s.certH, ka)
	s.certR = grow(s.certR, ka)
	A, H, R := s.certA, s.certH, s.certR
	tieMax := 0.0
	for x, a := range act {
		if len(g.colRows[a]) > 0 && g.taps[a] != 0 {
			cov = append(cov, x)
		}
		s.certTie[x] = 0.15 * g.wPow[a]
		if s.certTie[x] > tieMax {
			tieMax = s.certTie[x]
		}
		H[x] = math.Abs(g.tapRe[a]) + math.Abs(g.tapIm[a])
		R[x] = float64(s.cooc[a*s.kStride+a]) * H[x]
		A[x] = 0
	}
	// k is symmetric: each pair is formed once and counted for both.
	for x, a := range act {
		counts := s.cooc[a*s.kStride:]
		ar, ai := g.tapRe[a], g.tapIm[a]
		for y := x + 1; y < ka; y++ {
			b := act[y]
			n := float64(counts[b])
			k := coupling(n, ar, ai, g.tapRe[b], g.tapIm[b])
			A[x] += math.Abs(k)
			A[y] += math.Abs(k)
			R[x] += n * H[y]
			R[y] += n * H[x]
		}
	}
	omega := 0.0
	for x := range act {
		omega += H[x] * R[x]
	}
	s.certOmega = omega
	s.certCov = cov
	s.certTieMax = tieMax
}

// coupling returns k = 2·n·Re(conj(h_a)·h_b) for a pair that shares n
// active rows, from the two taps' parts: the one formula behind every
// k_xy the certificate reads.
func coupling(n, ar, ai, br, bi float64) float64 { return 2 * n * (ar*br + ai*bi) }

// couplingRow returns row x of the slot's coupling table certK, k_xy for
// every decode-set rank y, staging it on the slot's first read in O(Ka).
// The counts are symmetric and the products commute, so k_xy and k_yx
// are the same float, and each is the one prepareCert summed into certA.
func (s *Session) couplingRow(x int) []float64 {
	g := &s.g
	act := g.decodeTags
	ka := len(act)
	row := s.certK[x*ka : (x+1)*ka]
	if s.certKRow[x] {
		return row
	}
	s.certKRow[x] = true
	a := act[x]
	counts := s.cooc[a*s.kStride:]
	ar, ai := g.tapRe[a], g.tapIm[a]
	for y, b := range act {
		row[y] = coupling(float64(counts[b]), ar, ai, g.tapRe[b], g.tapIm[b])
	}
	row[x] = 0
	return row
}

// certSlack is the certificate's rounding slack relative to the
// position's magnitude scale: δ = certSlack·Λ (see certify).
const certSlack = 0x1p-24

// certify reports whether a position's pass-0 optimum b* is certified:
// whether provably no restart could end on a bit pattern that the fan
// would adopt over b*, or that would mark a tag ambiguous. gain and sign
// hold b*'s flip gains and flip signs by active rank; lambda is the
// position's magnitude scale Λ (below).
//
// The math. Let E be the error the fan compares: the residual norm over
// the active rows on a row slot, gramError on a Gram slot (the same
// quadratic less a constant). Over the active ranks x, let
// m_x = −gain_x = E(b*⊕{x}) − E(b*), σ_x = +1 when b*_x is clear and −1
// when set, and k_xy = 2·N_xy·Re(conj(h_x)·h_y). Flipping a set T of
// bits changes the error by
//
//	ΔE(T) = Σ_{x∈T} m_x + Σ_{x<y∈T} σ_x·σ_y·k_xy ≥ Σ_{x∈T} (m_x − ½·P_x),
//
// with P_x = Σ_{y≠x} max(0, −σ_x·σ_y·k_xy): every negative pair term is
// at least −max(0, ·), and each pair appears in both its tags' P. The
// position is certified when every active x with rows and a nonzero tap
// satisfies m_x − ½·P_x ≥ θ_x = 0.15·|h_x|²·w_x + δ. Then a pattern that
// differs from b* on such a tag i scores at least θ_i above b*: it is
// not adopted, and its gap is not below i's tie threshold 0.15·|h_i|²·w_i,
// so it marks nothing. A tag with no rows or a zero tap has m_x = 0 and
// k_xy = 0 exactly, so it adds nothing and is skipped; on a Gram slot a
// pattern that differs from b* only on such tags scores exactly b*'s
// error (gramError adds exact zeros for them), so it is neither adopted
// nor a tie. Evaluation runs cheapest first: one sweep fails when some
// m_x < θ_x; then each tag passes when m_x − ½·A_x ≥ θ_x, with
// A_x = Σ_y |k_xy| ≥ P_x staged per slot, and only otherwise sums its
// signed row P_x, O(Ka), over its row of couplings (couplingRow). A row
// is formed once per slot, and only when some position reads it: most
// positions fail the first sweep, and most tags that reach the second
// pass on A_x.
//
// Rounding. Every float the argument reads is an exact quantity plus
// rounding: the gains (their S-sums, and |h|²·w, which the graph updates
// incrementally), the couplings and their sums, the threshold products,
// and the two pass errors a fan comparison subtracts. Each such error is
// at most n·u·c·Λ, where u = 2⁻⁵³, n counts the roundings behind the
// value and Λ bounds every magnitude involved, with c ≤ 4:
//   - on a Gram slot Λ = Σ_x ‖h_x‖₁·(2‖B_x‖₁ + Σ_y N_xy‖h_y‖₁), which
//     bounds the sum of the absolute terms of gramError at every bit
//     pattern, of every gain and of every Σ_y |k_xy|;
//   - on a row slot Λ = E(b*) + Ω, Ω = Σ over the active rows of
//     (Σ_i ‖h_i‖₁)²: every pattern's residual norm is at most 2Λ, and so
//     are every gain's terms and every Σ_y |k_xy|.
//
// A Gram slot forms everything from the matched-filter state in O(Ka)
// roundings per value (gramError: 2Ka+2 per term, after Higham's
// summation bound with |Re a·Re b| + |Im a·Im b| ≤ |a||b|), plus |h|²·w's
// updates since its last re-derivation; a row slot adds the residual
// entries' and S-sums' updates since the last rebuild (a few per flip
// and row of the transfer) and normSqActive's L. The certificate needs
// δ above the sum of: both errors' of a comparison, one gain's, one P's,
// the threshold's and its own comparison's, in all at most 16·n·u·Λ.
// δ = 2⁻²⁴·Λ = 2²⁹·u·Λ covers that for n up to 2²⁵ roundings, far
// beyond any transfer's count, yet it decides fewer than one
// certificate in 10⁵ on the example specs. A NaN anywhere fails the
// certificate.
func (s *Session) certify(gain, sign []float64, lambda float64) bool {
	delta := certSlack * lambda
	for _, x := range s.certCov {
		if !(-gain[x] >= s.certTie[x]+delta) {
			return false
		}
	}
	for _, x := range s.certCov {
		m, th := -gain[x], s.certTie[x]+delta
		if m-0.5*s.certA[x] >= th {
			continue
		}
		sx, P := sign[x], 0.0
		for y, k := range s.couplingRow(x) {
			P += max(0, -sx*sign[y]*k)
		}
		if !(m-0.5*P >= th) {
			return false
		}
	}
	return true
}

// gramMaxKa caps the active tag count of a Gram-path slot. Begin and
// Reserve size the Gram table for min(K, gramMaxKa)² entries up front
// (shapeGram); the locked-column table grows in prepareGram to the
// largest Ka × (locked tags sharing an active row) the session has met
// and keeps that capacity, so sizing it up front at a reserved tag cap
// would cost most sessions far more than they use.
const gramMaxKa = 64

// gramRule reports whether a slot with ka active tags over nnz active
// adjacency entries runs its restarts in Gram space: when the Ka×Ka
// Gram has fewer entries than the adjacency it summarizes, and ka is
// within the reserved Gram storage (gramMaxKa). At equality the Gram
// saves nothing per restart and the position still pays its
// projection (a slot with one unlocked tag in one row, common on a
// dock door, decodes faster on the row path). The rule reads the
// graph's shape alone, and the floats each path produces depend only on
// the inputs.
func gramRule(ka, nnz int) bool { return ka <= gramMaxKa && ka*ka < nnz }

// prepareGram stages the Gram path's per-slot constants: it folds the
// rows appended since the last Gram slot into the matched-filter state
// (foldRows), then gathers the ranked active tags' taps, |h|²·w
// constants and Gram N_ab (the rows a and b share) from the session's
// co-occurrence counts, each row scaled by its rank's tap (gramNH), in
// O(Ka²); it lists the locked tags that share an active row
// (gramLocked) in O(active rows' colliders) and stages their columns
// N_al·h_l (gramLockCol) in O(Ka·locked). A row holding an active tag
// is an active row, so the live-row Gram restricted to the active tags
// is the active rows' Gram; its entries are integer counts, so the
// gather is exact, and every product a pass subtracts is formed once
// per slot, as the passes formed it.
//
// Why it suffices: with m_a = h_a where a's bit is set and 0 elsewhere,
// a pass's residual over the active rows is r = base − W·m, base being y
// minus the locked set-bit taps, so its S-sums are S = Wᴴr = B − N·m
// with B = Wᴴ·base, a flip of tag a moves S by −N_{·a}·δ, and
// ‖r‖² = ‖base‖² − Re(mᴴ(B + S)). The matched-filter outputs B and the
// Gram N are a sufficient statistic for the bit decision, and neither
// depends on the taps: B is the session's matched-filter state less the
// locked set bits' Gram columns (gramInput), so every pass costs O(Ka²)
// and a position needs no residual rebuild after a retap. The descent is
// the row path's to the flip: same gain formula, same (gain desc, index
// asc) scan, same eps and flip cap; only float association differs.
func (s *Session) prepareGram() {
	s.foldRows()
	g := &s.g
	act := g.activeTags
	ka := len(act)
	s.gramTap = grow(s.gramTap, ka)
	s.gramWPow = grow(s.gramWPow, ka)
	nh := grow(s.gramNH, ka*ka)
	s.gramNH = nh
	for x, a := range act {
		h := g.taps[a]
		s.gramTap[x] = h
		s.gramWPow[x] = g.wPow[a]
		gramColumn(nh[x*ka:(x+1)*ka], nil, s.cooc[a*s.kStride:], act, h)
	}
	mark := s.gramMark[:g.K]
	lk := s.gramLocked[:0]
	for _, row := range g.activeRows {
		for _, l := range g.rowCols[row] {
			if g.deactivated[l] && !mark[l] {
				mark[l] = true
				lk = append(lk, l)
			}
		}
	}
	slices.Sort(lk)
	for _, l := range lk {
		mark[l] = false
	}
	s.gramLocked = lk
	s.gramLockCol = grow(s.gramLockCol, len(lk)*ka)
	s.gramLockNZ = grow(s.gramLockNZ, len(lk)*ka)
	for j, l := range lk {
		gramColumn(s.gramLockCol[j*ka:(j+1)*ka], s.gramLockNZ[j*ka:(j+1)*ka], s.cooc[l*s.kStride:], act, g.taps[l])
	}
}

// gramColumn sets dst[x] = c·h, componentwise, with c the count
// counts[act[x]], and nz[x] (when nz is not nil) to whether c is
// nonzero: one row of gramNH, or one locked tag's gramLockCol column
// (the counts are symmetric, so a row of cooc serves as its column).
func gramColumn(dst []complex128, nz []bool, counts []int32, act []int, h complex128) {
	for x, a := range act {
		c := float64(counts[a])
		dst[x] = complex(c*real(h), c*imag(h))
		if nz != nil {
			nz[x] = c != 0
		}
	}
}

// finishSlot completes DecodeSlot after the position decodes: it marks
// the row state current after a row slot (a Gram slot leaves none) and
// merges the per-position results into the caller's margin and
// ambiguity outputs.
func (s *Session) finishSlot(minMargin []float64, anyAmbiguous []bool) {
	s.stateValid = !s.gramOn

	// A tag outside the decode set takes its rest value: no ambiguity
	// and margin marginOf(i, −∞), which is +∞ when |h_i|²·w_i > 0 and 0
	// when it is 0 (it is never negative), written here for every tag
	// without a division. A locked tag's gain is −∞ at every position
	// and the ambiguity sweep never marks it, so that is its merge
	// result; a rowless tag's margin is 0 whatever its gain and the sweep
	// never marks it either.
	for i, w := range s.g.wPow[:s.k] {
		minMargin[i] = restMargin(w)
	}
	clear(anyAmbiguous[:s.k])

	// Merge of the per-position results over the decode set, in position
	// order. The flip margin is m_i(p) = −gain_i(p)/(|h_i|²·w_i) with a
	// p-independent denominator, so the minimum margin is one division
	// from the maximum gain — the per-position margin rows of the naive
	// loop disappear entirely.
	active := s.g.decodeTags
	for _, i := range active {
		minMargin[i] = math.Inf(-1) // staging: max gain over positions
	}
	for p := 0; p < s.frameLen; p++ {
		grow := s.states[p].gain
		arow := s.ambiguous[p*s.kStride : p*s.kStride+s.k]
		for _, i := range active {
			if grow[i] > minMargin[i] {
				minMargin[i] = grow[i]
			}
			if arow[i] {
				anyAmbiguous[i] = true
			}
		}
	}
	for _, i := range active {
		minMargin[i] = s.g.marginOf(i, minMargin[i])
	}
}

// restMargin is marginOf(i, −∞) for wPow[i] = w ≥ 0: +∞ when w > 0
// and 0 when w = 0, selected without a branch (a tag's w has no pattern
// the predictor could learn) and without a division.
func restMargin(w float64) float64 {
	b := math.Float64bits(w) << 1 // zero exactly when w is ±0
	nz := (b | -b) >> 63          // 1 when w ≠ 0
	return math.Float64frombits(-nz & math.Float64bits(math.Inf(1)))
}

// randomBitsInto draws fair bits for a restart init, packing 64 draws
// per PRNG word (the restart inits are the decode loop's only bulk
// randomness; one splitmix step per tag would dominate the fill). Tag
// i's bit is bit i&63 of word i>>6, and all ⌈len(b)/64⌉ words are drawn
// whatever the active set, so the stream's draw count depends on K
// alone; only the active (ascending) tags' bits are written — a locked
// tag's restart bit is its locked value, which no reader takes from b.
// The rowless tags' bits are drawn too: an adopted restart carries them.
func randomBitsInto(src *prng.Source, b bits.Vector, active []int) {
	x := 0
	for base := 0; base < len(b); base += 64 {
		w := src.Uint64()
		for ; x < len(active) && active[x] < base+64; x++ {
			i := active[x]
			b[i] = w>>uint(i-base)&1 == 1
		}
	}
}

// decodePosition runs one position's full per-slot decode: pass-0
// descent, the restart certificate, the random restarts it does not
// rule out, margin and ambiguity bookkeeping. It writes position p's
// stripes, the session's workspace and the decode cost.
//
// The slot's kind decides the representation of every position. On a
// Gram slot every pass runs from the matched-filter state: pass 0
// descends in Gram space from the position's bits and its gains are
// installed (gramInstall), the restarts run through restartsGram, every
// pass is scored by gramError, and an adopted restart's gains replace
// pass 0's. On a row slot the position's row state is rebuilt when it is
// not current (stateValid), absorbs the rows appended since, and pass 0
// continues the descent on it; each restart is built from it
// (buildFrom), and an adopted one is copied back. Either way the
// restarts run only when pass 0's optimum is not certified (certify).
func (s *Session) decodePosition(p int) {
	g := &s.g
	ws := &s.ws
	st := &s.states[p]
	myBits := bits.Vector(s.PosBits(p))
	locked := s.curLocked

	var cFlips uint64
	if s.gramOn {
		ws.gramInput(s, p, myBits)
		cFlips = uint64(ws.gramDescend(s, myBits, 64*(g.K+1)*(g.L+1), nil))
		// A flip-free pass 0 ends on gramStart's state at the position's
		// bits, exactly what a re-derive computes; after a flip, re-derive
		// it. Those are the gains the certificate reads and the ones the
		// position keeps unless a restart is adopted.
		if cFlips > 0 {
			ws.gramStart(s, myBits)
		}
		ws.gramInstall(s, st)
	} else {
		if !s.stateValid {
			s.rebuildPosition(p, st, myBits, locked)
		}
		// O(colliders) per pending row: absorb what AppendColliders added. A
		// row born with every collider already locked is frozen on
		// arrival, and no pass scores it.
		for len(st.residual) < g.L {
			row := len(st.residual)
			st.appendRow(g, row, s.ys[p][row], myBits, locked)
		}
		cFlips = uint64(st.descend(g, myBits, locked, s.eps))
	}

	// Every per-pass step below walks the active tags and rows only. A
	// pass block's locked entries are never written or read: a locked
	// tag's restart bit is its locked value by definition, the builder
	// carries locked contributions over in the position's residual (and
	// gramInput in B), the descent and the ambiguity sweep never touch a
	// locked tag, and adoption copies back active bits alone. The decode
	// set's pass-0 bits are all the sweep and the Gram pass keys read.
	active, dec := g.activeTags, g.decodeTags
	if cFlips > 0 {
		s.moved = true
	}
	passes := 1
	allBits := ws.allBits[:(1+s.restarts)*s.k]
	passErr := ws.passErr[:1+s.restarts]
	for _, i := range dec {
		allBits[i] = myBits[i]
	}
	bestPass := 0
	ws.certified = false
	if s.restarts > 0 {
		// Pass 0 is scored in Gram form on a Gram slot, so adoption and the
		// ambiguity gaps compare like with like: a restart that ends on the
		// incumbent's bits scores exactly the incumbent's error and is
		// never adopted on rounding noise.
		var lambda float64
		gain, sign := ws.gGain[:len(dec)], ws.gSign[:len(dec)]
		if s.gramOn {
			passErr[0] = ws.gramError(s, myBits)
			lambda = s.certOmega
			for x, v := range ws.gB[:len(dec)] {
				lambda += 2 * s.certH[x] * (math.Abs(real(v)) + math.Abs(imag(v)))
			}
		} else {
			passErr[0] = st.normSqActive(g)
			lambda = passErr[0] + s.certOmega
			for x, i := range dec {
				gain[x], sign[x] = st.gain[i], st.bSign[i]
			}
		}
		s.certLambda[p] = lambda
		ws.certified = s.certify(gain, sign, lambda)
		if !ws.certified || s.fullFan {
			passes += s.restarts
		}
	}
	if passes > 1 && s.gramOn {
		f, best := s.restartsGram(p, ws, allBits, passErr)
		if bestPass = best; bestPass > 0 {
			// Re-derive the adopted pass's gains from its bits.
			bhat := allBits[bestPass*s.k : (bestPass+1)*s.k]
			for _, i := range active {
				myBits[i] = bhat[i]
			}
			ws.gramStart(s, myBits)
			ws.gramInstall(s, st)
			st.resetRowless(g, myBits)
		}
		cFlips += f
	} else if passes > 1 {
		bestErr := passErr[0]
		ws.src.Reseed(prng.Mix3(s.curBase, uint64(s.curSlot), uint64(p)))
		rst := &ws.rst
		for pass := 1; pass < passes; pass++ {
			bhat := bits.Vector(allBits[pass*s.k : (pass+1)*s.k])
			randomBitsInto(&ws.src, bhat, active)
			// Build the restart's state from the position's in one fused
			// sweep over the active rows: only the changed bits' taps
			// move a residual entry.
			rst.residual = rst.residual[:g.L]
			rst.buildFrom(g, st, myBits, bhat)
			cFlips += uint64(rst.descend(g, bhat, locked, s.eps))
			errV := rst.normSqActive(g)
			passErr[pass] = errV
			if errV < bestErr {
				bestErr = errV
				bestPass = pass
				st.copyActiveFrom(g, rst)
				for _, i := range active {
					myBits[i] = bhat[i]
				}
			}
		}
		if bestPass > 0 {
			// The adopted restart drew the rowless tags' bits too.
			st.resetRowless(g, myBits)
		}
	}
	if s.gramOn {
		s.gramErr[p] = passErr[bestPass]
	}
	if bestPass > 0 {
		s.moved = true
	}
	ws.passes = passes
	s.cost.DescentPasses++
	s.cost.RestartPasses += uint64(passes - 1)
	s.cost.Flips += cFlips

	// Margins are not materialized here: the adopted state's gain table
	// is exactly the fresh-margin formula's input, and DecodeSlot's
	// merge reads the gains directly. Locked tags' −∞ gains surface as
	// +∞ margins; the outer loop never gates on a locked tag's margin.
	arow := s.ambiguous[p*s.kStride : p*s.kStride+s.k]
	for _, i := range active {
		arow[i] = false
	}
	g.markAmbiguousPruned(allBits[:passes*s.k], passErr[:passes], bestPass, myBits, arow, s.certTie, s.certTieMax)
}

// restartsGram runs position p's restart passes in Gram space (see
// prepareGram) after its pass-0 descent, filling the pass blocks 1… of
// allBits and passErr; passErr[0] holds pass 0's gramError. Each pass
// descends from fresh random bits over the B staged by gramInput and is
// scored by gramError, once per distinct final bit pattern: gramError
// is a pure function of the bits, so a pass that ends where an earlier
// one did (most restarts end on pass 0's bits) takes that pass's error.
// It returns the restarts' flips and the best pass (0 when none beat
// pass 0); adoption is the caller's.
func (s *Session) restartsGram(p int, ws *workspace, allBits []bool, passErr []float64) (flips uint64, bestPass int) {
	g := &s.g
	active := g.activeTags
	keys := ws.passKey[:len(passErr)]
	keys[0] = 0
	for x, i := range active {
		if allBits[i] {
			keys[0] |= 1 << uint(x)
		}
	}
	ws.src.Reseed(prng.Mix3(s.curBase, uint64(s.curSlot), uint64(p)))
	best := passErr[0]
	maxFlips := 64 * (g.K + 1) * (g.L + 1)
	for pass := 1; pass < len(passErr); pass++ {
		bhat := bits.Vector(allBits[pass*s.k : (pass+1)*s.k])
		randomBitsInto(&ws.src, bhat, active)
		flips += uint64(ws.gramDescend(s, bhat, maxFlips, nil))
		key := uint64(0)
		for x, v := range ws.gBits[:len(active)] {
			if v {
				key |= 1 << uint(x)
			}
		}
		keys[pass] = key
		q := slices.Index(keys[:pass], key)
		var errV float64
		if q >= 0 {
			errV = passErr[q]
		} else {
			errV = ws.gramError(s, bhat)
		}
		passErr[pass] = errV
		if errV < best {
			best = errV
			bestPass = pass
		}
	}
	return flips, bestPass
}

// rebuildPosition derives a row state for position p into st from the
// position's observations and the bits b: on a row slot whose row state
// is not current (after a retap, a block fade, a window shrink or a Gram
// slot), and for PosError into its workspace. It builds the residual on
// the rows its readers need, then the active tags' S-sums and gains
// (rederive). Both residual builds subtract each row's set-bit
// colliders in ascending tag order, so the floats do not depend on the
// shape. With few active rows the build sweeps just those rows,
// O(active nnz), whatever the number of joined tags.
func (s *Session) rebuildPosition(p int, st *descentState, b bits.Vector, locked []bool) {
	g := &s.g
	y := s.ys[p][:g.L]
	st.residual = st.residual[:g.L]
	if 2*len(g.activeRows) > g.L-g.retired {
		// Most live rows are active (few tags locked): the column-major
		// build walks only the set-bit columns, about half the entries a
		// row sweep would.
		g.residualInto(st.residual, y, b)
	} else {
		// Few active rows (most tags locked): sweep just those rows.
		g.subtractOnActiveRows(st.residual, y, b)
	}
	st.rederive(g, b, locked)
}

// ConditionalMargin measures how much worse position p's observations
// can be explained with tag i's bit forced to the opposite value: it
// flips bit i in the position's current decode, pins it, lets every
// other unlocked bit re-optimize, and returns
//
//	(err(best with bit i flipped) − err(current)) / (|h_i|²·w_i)
//
// The plain flip margin only scores single-bit flips, so it is blind to
// constellation near-coincidences in which several tags' bits change
// together — the dominant false-decode mode when many tags collide in
// few slots. A conditional margin near zero says the flipped world
// explains the data almost as well: the bit is ambiguous no matter how
// confident the single-flip margin looks. Tags with no observations
// report 0. Tag i must be unlocked at the last DecodeSlot; locked marks
// the tags held fixed beside it, which may include tags locked since.
//
// The re-descent runs on the path the last DecodeSlot took (gramRule).
// On a Gram slot it runs in Gram space from the matched-filter state
// (conditionalMarginGram), which is all that slot keeps; on a row slot
// it reuses position p's residual, S-sums and gains
// (conditionalMarginRows), which that slot's decode left current.
// Either way the gate costs a re-descent from the position's own state
// rather than a from-scratch build per (position, tag), and leaves that
// state as it found it. It must be called from the session's owning
// goroutine (it shares one workspace), after a DecodeSlot and before
// the next state mutation (AppendColliders, Grow, or a RetapTags, Retire or
// RetireTag that changes anything) — the cached state it reuses is only
// valid inside that window.
func (s *Session) ConditionalMargin(p, i int, locked []bool) float64 {
	g := &s.g
	w := g.Degree(i)
	den := g.tapPower[i] * float64(w)
	if w == 0 || den == 0 {
		return 0
	}
	if s.gramOn {
		return s.conditionalMarginGram(p, i, locked) / den
	}
	return s.conditionalMarginRows(p, i, locked) / den
}

// ConditionalMarginAtLeast reports whether ConditionalMargin(p, i,
// locked) is at least thr — exactly !(ConditionalMargin(p, i, locked) <
// thr), the acceptance gate's per-position test — and skips the
// re-descent where a certificate proves the answer (gateCertified). A
// failed certificate falls back to ConditionalMargin, so every decision
// is bitwise the plain gate's. The same call window applies.
func (s *Session) ConditionalMarginAtLeast(p, i int, locked []bool, thr float64) bool {
	if !s.noGateCert && s.gateCertified(p, i, thr) {
		return true
	}
	return !(s.ConditionalMargin(p, i, locked) < thr)
}

// gateCertified reports whether position p's conditional margin for tag
// i provably clears thr, from the position's installed gains and the
// slot's staged couplings alone (certify's tables): no copy, flip or
// descent. Any bit pattern the gate's re-descent can end on differs
// from the position's bits b* on a set T of active tags holding i, so
// with m_x = −gain_x and A_x = Σ_y |k_xy| (see certify)
//
//	ΔE(T) ≥ Σ_{x∈T} (m_x − ½·A_x) ≥ m_i − ½·A_i + Σ_{x≠i} min(0, m_x − ½·A_x),
//
// and the margin is ΔE/(|h_i|²·w_i). The certificate holds when that
// bound is at least thr·|h_i|²·w_i + δ, δ = certSlack·(Λ + |thr·|h_i|²·w_i|)
// with the position's Λ from its decode (certLambda): the sum's terms
// add at most a few Λ of magnitude, well inside certify's rounding
// budget. It needs the slot's certificate tables, staged only on slots
// with restarts; without them, for a tag without rows or a zero tap,
// and on a NaN or infinity anywhere, it does not hold.
func (s *Session) gateCertified(p, i int, thr float64) bool {
	g := &s.g
	w := g.Degree(i)
	den := g.tapPower[i] * float64(w)
	if s.restarts == 0 || w == 0 || den == 0 {
		return false
	}
	act := g.decodeTags
	xi, ok := slices.BinarySearch(act, i)
	if !ok {
		return false
	}
	gain := s.states[p].gain
	A := s.certA[:len(act)]
	bound := -gain[i] - 0.5*A[xi]
	for x, j := range act {
		if x != xi {
			bound += min(0, -gain[j]-0.5*A[x])
		}
	}
	th := thr * den
	return bound >= th+certSlack*(s.certLambda[p]+math.Abs(th)) && !math.IsInf(bound, 0)
}

// conditionalMarginRows is ConditionalMargin's error difference on the
// row path, from position p's current residual. Both errors are taken
// over the active rows: the frozen rows add the same energy to each, so
// it cancels.
func (s *Session) conditionalMarginRows(p, i int, locked []bool) float64 {
	g := &s.g
	base := s.states[p].normSqActive(g)

	st := &s.cond.rst
	st.residual = st.residual[:len(s.states[p].residual)]
	st.copyActiveFrom(g, &s.states[p])
	bhat := bits.Vector(s.cond.allBits[:s.k])
	copy(bhat, s.PosBits(p))
	pin := s.cond.pin
	if locked != nil {
		copy(pin, locked)
	} else {
		clear(pin)
	}
	pin[i] = true
	// Force the opposite bit and freeze it, then let the rest
	// re-optimize — the cached gains of other tags are already
	// consistent, so only the flip's neighborhood updates.
	st.applyFlip(g, bhat, pin, i)
	st.lockTag(i)
	st.descend(g, bhat, pin, s.eps)
	return st.normSqActive(g) - base
}

// conditionalMarginGram is ConditionalMargin's error difference in Gram
// space (see prepareGram), from the slot's staged Gram and the
// matched-filter state alone: B at the position's bits (gramInput), then
// a Gram descent from those bits with bit i flipped, tag i and every
// active tag locked marks pinned. The base error is the decode's: the
// adopted pass's gramError (gramErr), which is gramError at the
// position's bits under the same B, bit for bit, since gramError is a
// pure function of the active bits and B depends only on locked bits
// that do not change within a slot. gramError drops the same constant
// from both errors, so the difference is the row path's.
// O(Ka² + Ka·locked) plus the descent's O(Ka) per flip; it writes only
// the gate workspace, never the position's state.
func (s *Session) conditionalMarginGram(p, i int, locked []bool) float64 {
	ws := &s.cond
	b := bits.Vector(ws.allBits[:s.k])
	copy(b, s.PosBits(p))
	ws.gramInput(s, p, b)
	pins := ws.gPins[:0]
	for x, j := range s.g.activeTags {
		if j == i || (locked != nil && locked[j]) {
			pins = append(pins, x)
		}
	}
	b[i] = !b[i]
	ws.gramDescend(s, b, 64*(s.g.K+1)*(s.g.L+1), pins)
	return ws.gramError(s, b) - s.gramErr[p]
}
