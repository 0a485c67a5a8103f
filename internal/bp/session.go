package bp

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/bits"
	"repro/internal/prng"
	"repro/internal/scratch"
)

// Session is the incremental cross-slot decoder state of one rateless
// transfer: the decoding graph plus, for every bit position of the
// frame, the cached residual, per-tag residual sums, gain table and
// current joint decode. Where the naive loop rebuilt all of that from
// scratch every slot — O(L·K·density) per position — a Session folds a
// new collision row into each position in O(colliders) and lets the
// descent continue from where the previous slot left it.
//
// A Session also owns the transfer's parallelism: the frame's bit
// positions are independent decode problems, so DecodeSlot fans them
// out across a bounded pool of persistent workers. Determinism is by
// construction, not by luck: every (slot, position) pair derives its
// own PRNG stream via prng.Mix3 from a base drawn once per transfer, and
// every mutation a worker performs is confined to its position's state
// and its own worker arena, so the result is byte-identical no matter
// how the scheduler interleaves workers — Parallelism 1 and
// Parallelism N produce the same transfer.
//
// Sessions are reusable: Begin re-shapes the state for a new transfer
// while keeping every buffer's capacity, so a warm Session (see
// GetSession) runs a steady-state transfer without touching the heap.
// A Session is not safe for concurrent use by multiple transfers; the
// worker pool it manages is internal.
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

	// states[p] is position p's cached descent state; residuals live in
	// resBacking stripes, sums/gains/trees/dirty-lists in the flat
	// blocks below.
	states         []descentState
	resBacking     []complex128
	sumBacking     []complex128
	gainBacking    []float64
	bSignBacking   []float64
	treeBacking    []int
	dirtyBacking   []int
	inDirtyBacking []bool

	// lockedBase[p] is y_p − Σ_{locked i, b_ip} h_i·d_i — the residual
	// with only the frozen tags' contributions removed. Restart passes
	// start from it and subtract just the unlocked tags' terms, so a
	// random re-initialization costs O(unlocked · density) instead of a
	// full O(K · density) residual build; late in a transfer, when most
	// messages are verified, that is nearly free.
	lockedBase    [][]complex128
	lockedBacking []complex128

	// posBits[p·K+i] is tag i's bit at position p in the current joint
	// decode — the init of the next slot's descent and the frame source
	// for the outer loop's CRC checks.
	posBits []bool
	// ambiguous and errs cache each position's post-decode restart-tie
	// flags (active tags' entries only — a locked tag is never marked)
	// and squared error. (Margins need no cache: the merge reads them
	// straight off the per-position gain tables.)
	ambiguous []bool
	errs      []float64
	// errInactive[p] is Σ|lockedBase[p][row]|² over rows whose every
	// collider is locked: their residual entries are frozen, so restart
	// builds and conditional re-decodes sweep only the active rows and
	// add this constant back when they need a full ‖r‖².
	errInactive []float64

	// wstates[w] is worker w's private restart workspace (serial decode
	// uses wstates[0]); cond is the ConditionalMargin workspace, used
	// only from the caller's goroutine.
	wstates []workerState
	cond    workerState

	// stateValid reports whether the cached per-position states match
	// the graph; SetTaps invalidates, the next DecodeSlot rebuilds.
	stateValid bool
	// retapIdx is RetapAll's changed-tag staging buffer.
	retapIdx []int

	// Coherence-window bookkeeping. rowPower[r] is the absorb-time
	// signal energy of row r (Σ_{i∈row} |h_i|²/2 — the expected
	// per-position contribution against fair bits); driftEnergy[r]
	// accumulates the model error RetapAll folds into the row (|Δh_i|²/2
	// per moved collider). driftTotal and sigTotal are their running
	// sums over the live rows: Retire subtracts a retired row's share,
	// and DriftFraction serves their ratio to the margin gate.
	rowPower    []float64
	driftEnergy []float64
	driftTotal  float64
	sigTotal    float64
	// trackDrift arms the banking: an unwindowed transfer never reads
	// DriftFraction, so AppendSlot, RetapAll and Retire all skip the
	// accounting unless the owner called TrackDrift(true) after Begin
	// (and before the first AppendSlot — toggling mid-transfer would
	// desynchronize the per-row series from the graph).
	trackDrift bool
	// retireIdx/retireTouched stage Retire's unique-collider sweep;
	// retireRows stages RetireTag's removed-row indices across the
	// graph mutation.
	retireIdx     []int
	retireTouched []bool
	retireRows    []int

	// Per-tag drift ledgers — the per-tag coherence window's margin-gate
	// input, armed by TrackTagDrift. tagCum[i] is the cumulative model
	// error RetapAll has banked against tag i (|Δh_i|²/2 summed over
	// move events, monotone within a transfer). tagLedger[i] interleaves,
	// per live in-window row of tag i (aligned with the graph's
	// colRows[i] minus any soft-stale prefix), the value of tagCum[i]
	// when the row absorbed the tag and the absorb-time signal energy
	// |h_i|²/2; tagSnapSum and tagSig are their running sums. Tag i's
	// banked in-window drift is then tagCum[i]·rows − tagSnapSum[i] —
	// O(1) to serve, O(1) per retap to maintain (where the pooled
	// per-row banking walks the tag's whole adjacency).
	trackTagDrift bool
	tagCum        []float64
	tagSnapSum    []float64
	tagSig        []float64
	tagLedger     [][]float64
	// orphan[r] is the unexplained signal energy hard tag-retirement
	// left in live row r: when RetireTag removes a mover from a row,
	// the mover's transmission stays in the observation with nothing
	// modeling it — noise from every survivor's point of view.
	// tagOrphan[i] sums orphan over tag i's live in-window rows, so
	// DriftFractionTag can charge each tag for the pollution it
	// actually decodes against, not just its own banked drift.
	orphan    []float64
	tagOrphan []float64

	// Per-DecodeSlot fan-out context, read-only while workers run.
	curSlot   int
	curLocked []bool
	curBase   uint64
	curThresh float64

	// Per-phase decode cost, cumulative since the last TakeDecodeCost.
	// Position workers accumulate locally and publish once per position
	// with atomic adds; integer sums commute, so the totals are exact at
	// any parallelism or batch schedule. ConditionalMargin's gate
	// descents are excluded — these count the decode itself.
	costDescent  atomic.Uint64
	costRestarts atomic.Uint64
	costFlips    atomic.Uint64

	// Worker pool: par is the requested width; workers are started
	// lazily on the first parallel DecodeSlot and live until Close.
	par     int
	posCh   chan int
	wg      sync.WaitGroup
	started bool
}

// workerState is one worker's private descent workspace: a scratch
// descentState for restart passes plus the per-pass candidate block the
// ambiguity sweep revisits. All buffers are session-owned and reused
// across positions, slots and transfers.
type workerState struct {
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
	setTap   []complex128
	treeBack []int
	dirtBack []int
	inDirt   []bool
}

// shape sizes the worker state for k tags, maxSlots symbols and the
// given pass count, reusing capacity.
func (w *workerState) shape(k, maxSlots, passes int) {
	w.resBack = growComplex(w.resBack, maxSlots)
	w.sumBack = growComplex(w.sumBack, k)
	w.gainBack = growFloats(w.gainBack, k)
	w.signBack = growFloats(w.signBack, k)
	w.maskBack = growComplex(w.maskBack, k)
	w.setTap = growComplex(w.setTap, k)
	treeLen := 2 * scratch.CeilPow2(max(k, 1))
	w.treeBack = growInts(w.treeBack, treeLen)
	w.dirtBack = growInts(w.dirtBack, k)
	w.inDirt = growBools(w.inDirt, k)
	clear(w.inDirt)
	w.rst.residual = w.resBack[:0:maxSlots]
	w.rst.sum = w.sumBack
	w.rst.gain = w.gainBack
	w.rst.bSign = w.signBack
	w.rst.maskTap = w.maskBack
	w.rst.allocTree(w.treeBack)
	w.rst.allocDirty(w.dirtBack, w.inDirt)
	w.allBits = growBools(w.allBits, passes*k)
	w.passErr = growFloats(w.passErr, passes)
	w.pin = growBools(w.pin, k)
}

// NewSession returns an empty Session; Begin shapes it.
func NewSession() *Session { return &Session{} }

var sessionPool = sync.Pool{New: func() any { return NewSession() }}

// GetSession returns a Session from the process-wide pool, warm from
// whatever transfer last used it — the per-transfer analogue of
// scratch.Get.
func GetSession() *Session { return sessionPool.Get().(*Session) }

// PutSession stops s's workers and returns it to the pool. The caller
// must not use s afterwards.
func PutSession(s *Session) {
	if s == nil {
		return
	}
	s.Close()
	sessionPool.Put(s)
}

// Close stops the session's worker goroutines, if any are running. The
// session remains usable — the next parallel DecodeSlot restarts them.
func (s *Session) Close() {
	if s.started {
		close(s.posCh)
		s.started = false
	}
}

// Reset returns the session to the empty pre-Begin state while keeping
// every buffer's capacity AND the worker pool — the recycling entry
// point for session pools (engine.Manager), where PutSession's worker
// teardown would throw the warmth away. A Reset session carries no
// decoder state, taps or graph rows from its previous transfer (so a
// pooled session cannot leak one reader's state into the next), and a
// following same-shaped Begin allocates nothing: recycled sessions
// decode byte-identically to fresh ones, pinned by the pool-reuse
// regression tests.
func (s *Session) Reset() {
	s.g.Reset(0, nil)
	s.k, s.frameLen, s.maxSlots, s.restarts = 0, 0, 0, 0
	s.ys = s.ys[:0]
	s.lockedBase = s.lockedBase[:0]
	s.states = s.states[:0]
	s.rowPower = s.rowPower[:0]
	s.driftEnergy = s.driftEnergy[:0]
	s.driftTotal, s.sigTotal = 0, 0
	s.trackDrift, s.trackTagDrift = false, false
	s.orphan = s.orphan[:0]
	s.retireRows = s.retireRows[:0]
	s.retireIdx = s.retireIdx[:0]
	s.stateValid = false
	s.curLocked = nil
	s.costDescent.Store(0)
	s.costRestarts.Store(0)
	s.costFlips.Store(0)
}

// Begin shapes the session for a transfer of k tags, frameLen bit
// positions and at most maxSlots collision slots, decoding with the
// given taps, restarts random re-initializations per position per slot,
// and par-way position fan-out (par ≤ 1 decodes inline on the caller's
// goroutine). Buffer capacities survive from earlier transfers; a
// same-shaped Begin allocates nothing.
func (s *Session) Begin(k, frameLen, maxSlots, par, restarts int, taps []complex128) {
	if par < 1 {
		par = 1
	}
	if par != s.par {
		s.Close()
	}
	s.k, s.frameLen, s.maxSlots, s.par = k, frameLen, maxSlots, par
	s.restarts = restarts
	s.eps = 1e-12
	s.g.Reset(k, taps)
	s.g.ReserveRows(maxSlots)
	adjK := k
	if s.reservedK > adjK {
		adjK = s.reservedK
	}
	s.g.ReserveAdjacency(adjK, maxSlots)

	s.ysBacking = growComplex(s.ysBacking, frameLen*maxSlots)
	s.ys = growSlices(s.ys, frameLen)
	s.lockedBacking = growComplex(s.lockedBacking, frameLen*maxSlots)
	s.lockedBase = growSlices(s.lockedBase, frameLen)
	s.resBacking = growComplex(s.resBacking, frameLen*maxSlots)
	s.sumBacking = growComplex(s.sumBacking, frameLen*k)
	s.gainBacking = growFloats(s.gainBacking, frameLen*k)
	s.bSignBacking = growFloats(s.bSignBacking, frameLen*k)
	treeLen := 2 * scratch.CeilPow2(max(k, 1))
	s.treeBacking = growInts(s.treeBacking, frameLen*treeLen)
	s.dirtyBacking = growInts(s.dirtyBacking, frameLen*k)
	s.inDirtyBacking = growBools(s.inDirtyBacking, frameLen*k)
	clear(s.inDirtyBacking)
	if cap(s.states) < frameLen {
		next := make([]descentState, frameLen, scratch.CeilPow2(frameLen))
		s.states = next
	}
	s.states = s.states[:frameLen]
	for p := 0; p < frameLen; p++ {
		s.ys[p] = s.ysBacking[p*maxSlots : p*maxSlots : (p+1)*maxSlots]
		s.lockedBase[p] = s.lockedBacking[p*maxSlots : p*maxSlots : (p+1)*maxSlots]
		st := &s.states[p]
		st.residual = s.resBacking[p*maxSlots : p*maxSlots : (p+1)*maxSlots]
		st.sum = s.sumBacking[p*k : (p+1)*k]
		st.gain = s.gainBacking[p*k : (p+1)*k]
		st.bSign = s.bSignBacking[p*k : (p+1)*k]
		st.allocTree(s.treeBacking[p*treeLen : (p+1)*treeLen])
		st.allocDirty(s.dirtyBacking[p*k:(p+1)*k], s.inDirtyBacking[p*k:(p+1)*k])
	}
	s.posBits = growBools(s.posBits, frameLen*k)
	s.ambiguous = growBools(s.ambiguous, frameLen*k)
	s.errs = growFloats(s.errs, frameLen)
	s.errInactive = growFloats(s.errInactive, frameLen)
	clear(s.errInactive)
	s.rowPower = growFloats(s.rowPower, maxSlots)[:0]
	s.driftEnergy = growFloats(s.driftEnergy, maxSlots)[:0]
	s.driftTotal, s.sigTotal = 0, 0
	s.trackDrift = false
	s.retireIdx = growInts(s.retireIdx, k)[:0]
	s.retireTouched = growBools(s.retireTouched, k)
	clear(s.retireTouched)
	s.retireRows = growInts(s.retireRows, maxSlots)[:0]
	s.trackTagDrift = false
	s.tagCum = growFloats(s.tagCum, k)
	clear(s.tagCum)
	s.tagSnapSum = growFloats(s.tagSnapSum, k)
	clear(s.tagSnapSum)
	s.tagSig = growFloats(s.tagSig, k)
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
	s.orphan = growFloats(s.orphan, maxSlots)[:0]
	s.tagOrphan = growFloats(s.tagOrphan, k)
	clear(s.tagOrphan)
	if cap(s.wstates) < par {
		s.wstates = make([]workerState, par)
	}
	s.wstates = s.wstates[:par]
	for w := range s.wstates {
		s.wstates[w].shape(k, maxSlots, 1+restarts)
	}
	s.cond.shape(k, maxSlots, 1)
	s.stateValid = false
	s.syncTreeMode()
	s.costDescent.Store(0)
	s.costRestarts.Store(0)
	s.costFlips.Store(0)
}

// DecodeCost is a per-phase breakdown of descent work: pass-0 descents
// (one per position per decoded slot), random restart passes, and total
// bit flips across both. It is the observable behind the restart
// wall-clock floor — restart passes dominate when RestartPasses/
// DescentPasses approaches the configured restart count.
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
	return DecodeCost{
		DescentPasses: s.costDescent.Swap(0),
		RestartPasses: s.costRestarts.Swap(0),
		Flips:         s.costFlips.Swap(0),
	}
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
	treeLen := 2 * scratch.CeilPow2(kCap)
	ysN := frameLen * maxSlots
	s.ysBacking = growComplex(s.ysBacking, ysN)[:0]
	s.lockedBacking = growComplex(s.lockedBacking, ysN)[:0]
	s.resBacking = growComplex(s.resBacking, ysN)[:0]
	s.ys = growSlices(s.ys, frameLen)[:0]
	s.lockedBase = growSlices(s.lockedBase, frameLen)[:0]
	s.sumBacking = growComplex(s.sumBacking, frameLen*kCap)[:0]
	s.gainBacking = growFloats(s.gainBacking, frameLen*kCap)[:0]
	s.bSignBacking = growFloats(s.bSignBacking, frameLen*kCap)[:0]
	s.treeBacking = growInts(s.treeBacking, frameLen*treeLen)[:0]
	s.dirtyBacking = growInts(s.dirtyBacking, frameLen*kCap)[:0]
	s.inDirtyBacking = growBools(s.inDirtyBacking, frameLen*kCap)[:0]
	s.posBits = growBools(s.posBits, frameLen*kCap)[:0]
	s.ambiguous = growBools(s.ambiguous, frameLen*kCap)[:0]
	if cap(s.states) < frameLen {
		s.states = make([]descentState, 0, scratch.CeilPow2(frameLen))
	}
	s.errs = growFloats(s.errs, frameLen)[:0]
	s.errInactive = growFloats(s.errInactive, frameLen)[:0]
	s.retireIdx = growInts(s.retireIdx, kCap)[:0]
	s.retireTouched = growBools(s.retireTouched, kCap)[:0]
	s.retireRows = growInts(s.retireRows, maxSlots)[:0]
	s.rowPower = growFloats(s.rowPower, maxSlots)[:0]
	s.driftEnergy = growFloats(s.driftEnergy, maxSlots)[:0]
	s.orphan = growFloats(s.orphan, maxSlots)[:0]
	s.tagCum = growFloats(s.tagCum, kCap)[:0]
	s.tagSnapSum = growFloats(s.tagSnapSum, kCap)[:0]
	s.tagSig = growFloats(s.tagSig, kCap)[:0]
	s.tagOrphan = growFloats(s.tagOrphan, kCap)[:0]
	if cap(s.tagLedger) < kCap {
		next := make([][]float64, len(s.tagLedger), scratch.CeilPow2(kCap))
		copy(next, s.tagLedger)
		s.tagLedger = next
	}
	if len(s.wstates) == 0 {
		if cap(s.wstates) < 1 {
			s.wstates = make([]workerState, 1)
		}
		s.wstates = s.wstates[:1]
	}
	for w := range s.wstates {
		s.wstates[w].shape(kCap, maxSlots, 1+restarts)
	}
	s.cond.shape(kCap, maxSlots, 1)
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
			s.posBits[p*s.k+i] = bool(e[p])
		}
	}
	s.stateValid = false
}

// SetTaps installs refined channel taps. The cached residuals and gains
// were derived under the old taps, so the next DecodeSlot rebuilds every
// position from its current bits — the price of decision-directed
// channel tracking, paid only on slots that actually re-tap.
func (s *Session) SetTaps(taps []complex128) {
	s.g.SetTaps(taps)
	s.stateValid = false
}

// RetapAll installs new channel taps, patching the cached per-position
// state incrementally where that is cheaper than a rebuild. For each
// changed unlocked tag i the patch is O(frameLen · w_i · colliders):
// every absorbed residual entry of a row tag i transmits a 1 in moves
// by h_old − h_new, the touched S-sums move with it, and one sweep over
// the unlocked tags per position re-derives the gains. Two cases fall back to full
// invalidation (the next DecodeSlot rebuilds from the observations):
// a locked tag's tap moved (its contribution lives in the locked-base
// residuals and the frozen-row error constants), or at least half the
// taps moved (block fade — the rebuild touches less memory than the
// per-tag patches would). The two paths agree up to floating-point
// association (the patch adds tap deltas onto cached residuals instead
// of re-summing them), and the path taken depends only on which taps
// moved — never on parallelism or scheduling — so same-seed transfers
// remain byte-identical.
//
// RetapAll does NOT refresh the cached per-position errors (that would
// cost a full O(frameLen·L) residual-norm sweep, more than the patch
// itself): like AppendSlot, it invalidates PosError and
// ConditionalMargin until the next DecodeSlot recomputes them. Call
// order per slot is retap → append → decode → gates, as the transfer
// loops do.
func (s *Session) RetapAll(taps []complex128) {
	if len(taps) != s.k {
		panic(fmt.Sprintf("bp: RetapAll got %d taps for %d tags", len(taps), s.k))
	}
	changed := s.retapIdx[:0]
	for i, h := range taps {
		if h != s.g.taps[i] {
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
	// Soft-stale rows carry per-(row, tag) weights the patch below does
	// not know about — rebuild instead.
	full := !s.stateValid || 2*len(changed) >= s.k || s.g.anyStale
	if !full {
		for _, i := range changed {
			if s.g.deactivated[i] {
				full = true
				break
			}
		}
	}
	if full {
		for _, i := range changed {
			s.g.RetapTag(i, taps[i])
		}
		s.stateValid = false
		return
	}
	for _, i := range changed {
		delta := s.g.taps[i] - taps[i]
		s.g.RetapTag(i, taps[i])
		for p := 0; p < s.frameLen; p++ {
			if !s.posBits[p*s.k+i] {
				continue
			}
			st := &s.states[p]
			for _, row := range s.g.colRows[i] {
				if row >= len(st.residual) {
					break // not yet absorbed; appendRow uses the new taps
				}
				st.residual[row] += delta
				for _, j := range s.g.rowActive[row] {
					st.sum[j] += delta
				}
			}
		}
	}
	// Sums and tap caches moved under the gains; one sweep per position
	// re-derives every unlocked gain and rebuilds the argmax tree.
	for p := 0; p < s.frameLen; p++ {
		st := &s.states[p]
		for _, i := range s.g.activeTags {
			st.gain[i] = st.gainOf(&s.g, i)
		}
		if st.useTree {
			st.treeBuild(&s.g)
		}
	}
}

// restripe resizes a per-position striped backing from stride oldK to
// stride newK, preserving each position's first oldK entries; the new
// tail entries of each stripe are garbage the caller initializes.
func restripe[T any](buf []T, frameLen, oldK, newK int) []T {
	need := frameLen * newK
	if cap(buf) < need {
		next := make([]T, need, scratch.CeilPow2(need))
		for p := 0; p < frameLen; p++ {
			copy(next[p*newK:p*newK+oldK], buf[p*oldK:(p+1)*oldK])
		}
		return next
	}
	buf = buf[:need]
	// In place: destination stripes sit at or above their sources, so a
	// top-down walk never clobbers an uncopied source (copy is memmove).
	for p := frameLen - 1; p >= 0; p-- {
		copy(buf[p*newK:p*newK+oldK], buf[p*oldK:(p+1)*oldK])
	}
	return buf
}

// Grow admits tags into a mid-transfer session — the dynamic-population
// path, where a tag identified mid-round joins the decode without
// restarting it. Each new tag gets the given decoder tap and initial
// per-position bit estimates (est[j][p] = new tag j's starting bit at
// position p). The graph gains empty active columns (the tag was silent
// in every absorbed row), every per-position stripe is re-laid for the
// larger K, and all cached residuals, S-sums, gains and locks of the
// existing tags survive: the next DecodeSlot continues their descent
// exactly where it left off. Growth is a rare event (an arrival burst),
// so this path may allocate.
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

	s.sumBacking = restripe(s.sumBacking, s.frameLen, oldK, k2)
	s.gainBacking = restripe(s.gainBacking, s.frameLen, oldK, k2)
	s.bSignBacking = restripe(s.bSignBacking, s.frameLen, oldK, k2)
	s.posBits = restripe(s.posBits, s.frameLen, oldK, k2)
	s.ambiguous = growBools(s.ambiguous, s.frameLen*k2)
	treeLen := 2 * scratch.CeilPow2(k2)
	s.treeBacking = growInts(s.treeBacking, s.frameLen*treeLen)
	s.dirtyBacking = growInts(s.dirtyBacking, s.frameLen*k2)
	s.inDirtyBacking = growBools(s.inDirtyBacking, s.frameLen*k2)
	clear(s.inDirtyBacking)
	s.retireIdx = growInts(s.retireIdx, k2)[:0]
	s.retireTouched = growBools(s.retireTouched, k2)
	clear(s.retireTouched)
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

	for p := 0; p < s.frameLen; p++ {
		st := &s.states[p]
		st.sum = s.sumBacking[p*k2 : (p+1)*k2]
		st.gain = s.gainBacking[p*k2 : (p+1)*k2]
		st.bSign = s.bSignBacking[p*k2 : (p+1)*k2]
		st.allocTree(s.treeBacking[p*treeLen : (p+1)*treeLen])
		st.allocDirty(s.dirtyBacking[p*k2:(p+1)*k2], s.inDirtyBacking[p*k2:(p+1)*k2])
		for j := range est {
			i := oldK + j
			bit := bool(est[j][p])
			s.posBits[p*k2+i] = bit
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
		if st.useTree {
			st.treeBuild(&s.g)
		}
	}
	for w := range s.wstates {
		s.wstates[w].shape(k2, s.maxSlots, 1+s.restarts)
	}
	s.cond.shape(k2, s.maxSlots, 1)
	s.syncTreeMode()
}

// AppendSlot feeds the session one new collision slot: the
// participation row and one observed symbol per bit position. The graph
// grows by one row; each position's cached state absorbs the new
// observation lazily at its next decode, in O(colliders).
func (s *Session) AppendSlot(row bits.Vector, obs []complex128) {
	if len(obs) != s.frameLen {
		panic(fmt.Sprintf("bp: AppendSlot got %d observations for frame length %d", len(obs), s.frameLen))
	}
	if s.g.L >= s.maxSlots {
		panic("bp: AppendSlot past the session's maxSlots")
	}
	s.g.AppendRow(row)
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

// Retire drops every collision slot up to and including throughSlot
// (1-based) from the decode — the symmetric inverse of Grow's and
// AppendSlot's accretion, turning "the graph only grows" into "the
// graph is a sliding window". Each retired row leaves the graph's
// adjacency (Graph.RetireRow; indices never shift, so all cached
// per-row state stays aligned) and each position's cached descent
// state loses exactly that row's contribution: the S-sums drop the
// cached residual entry, the touched tags' gains and argmax trees are
// re-derived once after the sweep, and a row whose energy had been
// banked into the frozen-row error constant gives it back. Cost is
// O(frameLen · colliders) per retired row plus one O(frameLen ·
// touched · log K) gain sweep per call; descent state of the surviving
// rows is untouched, so the next DecodeSlot continues every position's
// search where it left off.
//
// Two cases fall back to whole-state invalidation, after which the
// next DecodeSlot rebuilds every position from the surviving rows'
// observations: the cached state is already invalid (a pending
// retap/grow rebuild — under fast drift RetapAll invalidates every
// slot, so windowed fast-mobility decodes take this path), and a call
// retiring at least half the live rows (a window shrink; the rebuild
// touches less memory than the patches would). Like AppendSlot, Retire
// invalidates the cached per-position errors until the next DecodeSlot;
// call it between a DecodeSlot and the next AppendSlot.
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
	n := hi - lo
	// Soft-stale rows carry weights the patch does not know about.
	patch := s.stateValid && 2*n < g.L-lo && !g.anyStale
	if patch && s.frameLen > 0 && hi > len(s.states[0].residual) {
		// Positions have not absorbed the rows being retired yet (Retire
		// mid-slot, between AppendSlot and DecodeSlot): nothing cached
		// references them consistently — rebuild.
		patch = false
	}
	touched := s.retireIdx[:0]
	for r := lo; r < hi; r++ {
		if patch {
			// An active row leaves its unlocked colliders' S-sums; an
			// inactive row has none, and its residual entry is not
			// maintained — only its banked locked-base energy goes.
			active := g.rowActive[r]
			for p := 0; p < s.frameLen; p++ {
				st := &s.states[p]
				if len(active) == 0 {
					lb := s.lockedBase[p][r]
					s.errInactive[p] -= real(lb)*real(lb) + imag(lb)*imag(lb)
					continue
				}
				res := st.residual[r]
				for _, i := range active {
					st.sum[i] -= res
				}
			}
			for _, i := range active {
				if !s.retireTouched[i] {
					s.retireTouched[i] = true
					touched = append(touched, i)
				}
			}
		}
		if s.trackDrift {
			s.driftTotal -= s.driftEnergy[r]
			s.sigTotal -= s.rowPower[r]
		}
		if s.trackTagDrift {
			// The retiring row heads every surviving collider's ledger
			// (rows retire oldest-first, per tag and globally alike) —
			// unless soft aging already dropped it from the ledger.
			for _, i := range g.rowCols[r] {
				if r < g.staleCut[i] {
					continue
				}
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
	s.retireIdx = touched
	if !patch {
		s.stateValid = false
		return n
	}
	// Sums and the graph's |h|²·w constants moved under the touched
	// tags' gains; one sweep per position re-derives them and repairs
	// the argmax trees.
	for p := 0; p < s.frameLen; p++ {
		st := &s.states[p]
		for _, i := range touched {
			st.gain[i] = st.gainOf(g, i)
			if st.useTree {
				st.treeFix(i)
			}
		}
	}
	for _, i := range touched {
		s.retireTouched[i] = false
	}
	return n
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
// Each removed (row, tag) pair leaves the graph's adjacency
// (Graph.RetireTagRows) and each position's cached descent state loses
// exactly that pair's terms: the row's residual gains the tag's tap
// back (where the position's current bit is 1), the surviving active
// colliders' S-sums move with it, the tag's own S-sum drops the row's
// entry, and every touched gain and argmax tree is re-derived once
// after the sweep — O(frameLen · colliders) per removed row, the same
// shape as Retire. A row whose last active collider was the retired
// tag freezes exactly as when its last collider locks: its locked-base
// energy joins the per-position error constant.
//
// Falls back to whole-state invalidation (the next DecodeSlot rebuilds
// from the surviving model) when the cached state is already invalid,
// the tag is locked (its contribution lives in the locked-base
// residuals, not the descent state), soft down-weighting is active
// anywhere, or a removed row has not been absorbed yet. Removing a
// tag's every row is legal: like a tag that just joined, its margins
// collapse to zero until it participates again. Like Retire, RetireTag
// invalidates the cached per-position errors until the next DecodeSlot;
// call it between a DecodeSlot and the next AppendSlot.
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
	patch := s.stateValid && !g.deactivated[tag] && !g.anyStale
	if patch && s.frameLen > 0 && rows[n-1] >= len(s.states[0].residual) {
		// Not yet absorbed (RetireTag mid-slot, between AppendSlot and
		// DecodeSlot): nothing cached references the row — rebuild.
		patch = false
	}
	g.RetireTagRows(tag, hi)
	if s.trackTagDrift {
		// The ledger holds only the tag's in-window rows: rows soft
		// aging already moved past the stale cut left it (and the
		// orphan sum) back then, so only the fresh removals pop
		// entries here — same guard as the global Retire's pop.
		led := s.tagLedger[tag]
		x := 0
		for _, row := range rows {
			if row < g.staleCut[tag] {
				continue
			}
			s.tagSnapSum[tag] -= led[2*x]
			s.tagSig[tag] -= led[2*x+1]
			// The removed pair's signal stays in the observation with
			// nothing modeling it: bank it as orphan energy against the
			// row, charged to every survivor still decoding the row
			// in-window — their residuals carry it as noise from here on.
			s.tagOrphan[tag] -= s.orphan[row]
			e := led[2*x+1]
			s.orphan[row] += e
			for _, j := range g.rowCols[row] {
				if row >= g.staleCut[j] {
					s.tagOrphan[j] += e
				}
			}
			x++
		}
		copy(led, led[2*x:])
		s.tagLedger[tag] = led[:len(led)-2*x]
	}
	if !patch {
		g.TakeNewlyInactive() // the rebuild re-derives the frozen-row constants
		s.stateValid = false
		return n
	}
	h := g.taps[tag]
	for p := 0; p < s.frameLen; p++ {
		st := &s.states[p]
		set := s.posBits[p*s.k+tag]
		for _, row := range rows {
			// The tag leaves the row's model: its S-sum drops the row's
			// entry, and where its bit is 1 the residual gains the tap
			// back — rowActive already excludes the tag (and the locked,
			// whose sums are dead), so the survivors' S-sums follow.
			res := st.residual[row]
			st.sum[tag] -= res
			if set {
				st.residual[row] = res + h
				for _, j := range g.rowActive[row] {
					st.sum[j] += h
				}
			}
		}
	}
	touched := s.retireIdx[:0]
	s.retireTouched[tag] = true
	touched = append(touched, tag)
	for _, row := range rows {
		for _, j := range g.rowActive[row] {
			if !s.retireTouched[j] {
				s.retireTouched[j] = true
				touched = append(touched, j)
			}
		}
	}
	// Rows the tag left empty of active colliders freeze: their residual
	// entries leave the active error sweep and their locked-base energy
	// joins the per-position constant, as when a lock empties a row.
	if inactive := g.TakeNewlyInactive(); len(inactive) > 0 {
		for p := 0; p < s.frameLen; p++ {
			lbp := s.lockedBase[p]
			acc := s.errInactive[p]
			for _, row := range inactive {
				x := lbp[row]
				acc += real(x)*real(x) + imag(x)*imag(x)
			}
			s.errInactive[p] = acc
		}
	}
	degZero := g.Degree(tag) == 0
	for p := 0; p < s.frameLen; p++ {
		st := &s.states[p]
		if degZero {
			// All rows gone: snap the float dust out of the tag's S-sum
			// so its gain is exactly 0, as for a tag that just joined.
			st.sum[tag] = 0
		}
		for _, i := range touched {
			st.gain[i] = st.gainOf(g, i)
			if st.useTree {
				st.treeFix(i)
			}
		}
	}
	for _, i := range touched {
		s.retireTouched[i] = false
	}
	s.retireIdx = touched[:0]
	return n
}

// SoftRetireTag ages tag's collision slots up to and including
// throughSlot out of its coherence window softly: instead of removing
// the tag from those rows (RetireTag's hard edge), their taps are
// down-weighted to α·h by the tag's banked drift ratio — α =
// 1/(1 + DriftFractionTag(tag)) at the moment the rows go stale — so a
// mover's old evidence fades in proportion to how far the channel has
// been observed to move (Graph.SetSoftCut). The aged rows leave the
// tag's drift ledger exactly as a hard retire would, keeping the
// margin gate's per-tag drift fraction an in-window quantity.
//
// The weight change touches every stale row of the tag at once, so the
// cached descent state is invalidated wholesale and the next
// DecodeSlot rebuilds — soft mode is for heavy-drift transfers whose
// every slot rebuilds anyway (see PERFORMANCE.md's cost model).
// Returns the number of rows that newly went stale.
func (s *Session) SoftRetireTag(tag, throughSlot int) int {
	g := &s.g
	hi := min(throughSlot, g.L)
	alpha := s.softAlphaFor(tag)
	drop := 0
	if s.trackTagDrift {
		cr := g.colRows[tag]
		for x := g.staleCnt[tag]; x < len(cr) && cr[x] < hi; x++ {
			s.tagOrphan[tag] -= s.orphan[cr[x]]
			drop++
		}
	}
	n, changed := g.SetSoftCut(tag, hi, alpha)
	if !changed {
		return 0
	}
	if drop > 0 {
		led := s.tagLedger[tag]
		for x := 0; x < drop; x++ {
			s.tagSnapSum[tag] -= led[2*x]
			s.tagSig[tag] -= led[2*x+1]
		}
		copy(led, led[2*drop:])
		s.tagLedger[tag] = led[:len(led)-2*drop]
	}
	s.stateValid = false
	return n
}

// softAlphaFor derives the soft down-weight for tag's stale rows from
// its banked drift ratio: the tag's LIFETIME banked drift (tagCum —
// never reclaimed, unlike the in-window ledger) against the mean
// absorb-time row energy. The lifetime ratio grows as long as the
// channel keeps moving, so the weight of old evidence keeps decaying
// across successive SoftRetireTag calls — a single in-window ratio
// would pin ancient rows at the window-boundary weight forever, and
// rows fifty slots past coherence would keep half their vote on taps
// they know nothing about.
func (s *Session) softAlphaFor(tag int) float64 {
	n := len(s.tagLedger[tag]) / 2
	if n == 0 || s.tagSig[tag] <= 0 || s.tagCum[tag] <= 0 {
		return 1
	}
	meanRowSig := s.tagSig[tag] / float64(n)
	return 1 / (1 + s.tagCum[tag]/meanRowSig)
}

// TrackTagDrift arms (or disarms) the per-tag drift ledgers behind
// DriftFractionTag — the per-tag analogue of TrackDrift, with the same
// contract: toggle after Begin and before the first AppendSlot. Arming
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
// gate's deflator. Two terms: the drift RetapAll banked against the
// tag's own tap (|Δh_i|²/2 per move, reclaimed by RetireTag and
// SoftRetireTag as rows age out), plus the orphan energy hard
// retirement of OTHER tags left unmodeled in rows the tag still
// decodes — a parked tag among hard-windowed movers is clean of drift
// but polluted by their orphans, and its honest margins deflate
// accordingly.
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

// StaleRows returns the number of tag i's live rows currently under
// soft down-weighting.
func (s *Session) StaleRows(i int) int { return s.g.StaleRows(i) }

// TrackDrift arms (or disarms) the model-error accounting behind
// DriftFraction. Begin resets it off; a windowed transfer turns it on
// before the first slot, everything else skips the per-retap cost.
func (s *Session) TrackDrift(on bool) { s.trackDrift = on }

// DriftFraction estimates the accumulated channel-model error carried
// by the live rows, as a fraction of their absorb-time signal energy:
// RetapAll (when armed via TrackDrift) banks |Δh|²/2 per moved tap per
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

// Slots returns the number of collision slots absorbed so far.
func (s *Session) Slots() int { return s.g.L }

// Ys exposes the per-position observation store (ys[p][l] = position
// p's symbol in slot l) for the channel-refinement fit. Callers must
// not modify it.
func (s *Session) Ys() [][]complex128 { return s.ys }

// PosBits returns position p's current joint decode (one bit per tag),
// aliasing the session's state: valid until the next DecodeSlot.
func (s *Session) PosBits(p int) []bool { return s.posBits[p*s.k : (p+1)*s.k] }

// PosError returns ‖residual‖² at position p's current decode.
func (s *Session) PosError(p int) float64 { return s.errs[p] }

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
// pass 0 continues each position's cached descent (or rebuilds it when
// taps changed), then the configured number of random re-initializations,
// keeping the lowest-error candidate. base is the transfer's decode-PRNG
// root; slot the 1-based slot index — every position derives stream
// Mix3(base, slot, p), making the result independent of worker
// scheduling.
//
// minMargin[i] receives the minimum over positions of tag i's flip
// margin; anyAmbiguous[i] reports whether any position's restarts
// exposed a near-tie on tag i.
func (s *Session) DecodeSlot(slot int, locked []bool, base uint64, minMargin []float64, anyAmbiguous []bool) {
	s.prepareSlot(slot, locked, base)
	if s.par > 1 {
		s.ensureWorkers()
		s.wg.Add(s.frameLen)
		for p := 0; p < s.frameLen; p++ {
			s.posCh <- p
		}
		s.wg.Wait()
	} else {
		for p := 0; p < s.frameLen; p++ {
			s.decodePosition(p, &s.wstates[0])
		}
	}
	s.finishSlot(minMargin, anyAmbiguous)
}

// prepareSlot runs DecodeSlot's serial preamble: newly locked tags fold
// into the graph, gain tables and locked-base residuals, and the
// per-slot fan-out context (slot, locked set, PRNG base, tie threshold,
// active-row snapshot) is staged. After it, every position is an
// independent decode unit, fanned over the session's worker pool until
// finishSlot merges the results.
func (s *Session) prepareSlot(slot int, locked []bool, base uint64) {
	if locked != nil && len(locked) != s.k {
		panic(fmt.Sprintf("bp: DecodeSlot locked length %d != K %d", len(locked), s.k))
	}
	// Fold newly locked tags into the graph and the cached gain tables
	// before fanning out — a frozen tag's gain is −∞ and its fan-out
	// entries are dead from here on (§6d).
	if locked != nil {
		for i, l := range locked {
			if l && !s.g.deactivated[i] {
				s.g.DeactivateTag(i)
				if !s.stateValid {
					// The rebuild re-derives active tags only: pin the
					// frozen gain here.
					for p := 0; p < s.frameLen; p++ {
						s.states[p].gain[i] = math.Inf(-1)
					}
				} else {
					h := s.g.taps[i]
					for p := 0; p < s.frameLen; p++ {
						s.states[p].lockTag(i)
						// Fold the frozen tag into the locked-base
						// residual of every absorbed row it touches.
						if s.posBits[p*s.k+i] {
							lbp := s.lockedBase[p]
							for _, row := range s.g.colRows[i] {
								if row >= len(lbp) {
									break
								}
								if s.g.soft && row < s.g.staleCut[i] {
									lbp[row] -= complex(s.g.softAlpha[i], 0) * h
								} else {
									lbp[row] -= h
								}
							}
						}
					}
				}
			}
		}
		// Rows whose last active collider just locked are frozen from
		// here on: bank their energy into the per-position constant.
		// (Consumed after all folds so lockedBase is final.)
		if rows := s.g.TakeNewlyInactive(); len(rows) > 0 && s.stateValid {
			for p := 0; p < s.frameLen; p++ {
				lbp := s.lockedBase[p]
				acc := s.errInactive[p]
				for _, row := range rows {
					if row < len(lbp) {
						x := lbp[row]
						acc += real(x)*real(x) + imag(x)*imag(x)
					}
				}
				s.errInactive[p] = acc
			}
		}
	}
	s.syncTreeMode()

	s.curSlot = slot
	s.curLocked = locked
	s.curBase = base
	s.curThresh = s.g.maxTieThreshold()
	s.g.SnapshotActive()
}

// syncTreeMode points every descent state's argmax at the structure the
// active tag count calls for (useTreeFor): the count falls as tags lock
// and rises as Grow admits more. A position switching to the tree while
// its cached state is valid gets the tree built from its gains; an
// invalid one builds it at its rebuild, and the restart and
// conditional-margin workspaces build or copy theirs per use.
func (s *Session) syncTreeMode() {
	want := useTreeFor(len(s.g.activeTags))
	for p := range s.states {
		st := &s.states[p]
		if st.useTree != want {
			st.useTree = want
			if want && s.stateValid {
				st.treeBuild(&s.g)
			}
		}
	}
	for w := range s.wstates {
		s.wstates[w].rst.useTree = want
	}
	s.cond.rst.useTree = want
}

// finishSlot completes DecodeSlot after the position fan-out: it marks
// the cached state valid and merges the per-position results into the
// caller's margin and ambiguity outputs.
func (s *Session) finishSlot(minMargin []float64, anyAmbiguous []bool) {
	s.stateValid = true

	// Deterministic merge of the per-position results, in position
	// order, after the barrier: min/max and OR are order-independent,
	// but keeping the merge single-threaded makes that fact irrelevant.
	// The flip margin is m_i(p) = −gain_i(p)/(|h_i|²·w_i) with a
	// p-independent denominator, so the minimum margin is one division
	// from the maximum gain — the per-position margin rows of the naive
	// loop disappear entirely. Only the active tags are merged: a locked
	// tag's gain is −∞ at every position and the ambiguity sweep never
	// marks it, so its staged −∞ and false are already the merge result.
	for i := 0; i < s.k; i++ {
		minMargin[i] = math.Inf(-1) // staging: max gain over positions
		anyAmbiguous[i] = false
	}
	active := s.g.activeTags
	for p := 0; p < s.frameLen; p++ {
		grow := s.states[p].gain
		arow := s.ambiguous[p*s.k : (p+1)*s.k]
		for _, i := range active {
			if grow[i] > minMargin[i] {
				minMargin[i] = grow[i]
			}
			if arow[i] {
				anyAmbiguous[i] = true
			}
		}
	}
	for i := 0; i < s.k; i++ {
		minMargin[i] = s.g.marginOf(i, minMargin[i])
	}
}

// ensureWorkers starts the persistent position workers, each bound to
// its private workerState. The pool is torn down by Close/PutSession.
func (s *Session) ensureWorkers() {
	if s.started {
		return
	}
	s.posCh = make(chan int)
	for w := 0; w < s.par; w++ {
		go func(ch chan int, ws *workerState) {
			for p := range ch {
				s.decodePosition(p, ws)
				s.wg.Done()
			}
		}(s.posCh, &s.wstates[w])
	}
	s.started = true
}

// randomBitsInto draws fair bits for a restart init, packing 64 draws
// per PRNG word (the restart inits are the decode loop's only bulk
// randomness; one splitmix step per tag would dominate the fill). Tag
// i's bit is bit i&63 of word i>>6, and all ⌈len(b)/64⌉ words are drawn
// whatever the active set, so the stream's draw count depends on K
// alone; only the active (ascending) tags' bits are written — a locked
// tag's restart bit is its locked value, which no reader takes from b.
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

// decodePosition runs one position's full per-slot decode: state
// catch-up, pass-0 descent, random restarts, margin and ambiguity
// bookkeeping. All mutations are confined to position p's stripes and
// the caller's workerState.
func (s *Session) decodePosition(p int, ws *workerState) {
	g := &s.g
	st := &s.states[p]
	myBits := bits.Vector(s.posBits[p*s.k : (p+1)*s.k])
	locked := s.curLocked

	if !s.stateValid {
		s.rebuildPosition(p, st, ws, myBits, locked)
	} else {
		// O(colliders) per pending row: absorb what AppendSlot added
		// into both the descent state and the locked-base residual. A
		// row born with every collider already locked is frozen on
		// arrival — its energy goes straight to the error constant.
		for len(st.residual) < g.L {
			row := len(st.residual)
			obs := s.ys[p][row]
			lb := obs
			if locked != nil {
				for _, i := range g.rowCols[row] {
					if locked[i] && myBits[i] {
						lb -= g.taps[i]
					}
				}
			}
			s.lockedBase[p] = append(s.lockedBase[p], lb)
			if len(g.rowActive[row]) == 0 {
				s.errInactive[p] += real(lb)*real(lb) + imag(lb)*imag(lb)
			}
			st.appendRow(g, row, obs, myBits, locked)
		}
	}
	cFlips := uint64(st.descend(g, myBits, locked, s.eps))
	cRestarts := uint64(0)
	bestErr := st.normSqActive(g) + s.errInactive[p]

	// Every per-pass step below walks the active tags and rows only. A
	// pass block's locked entries are never written or read: a locked
	// tag's restart bit is its locked value by definition, the builder
	// takes locked contributions from the locked base, the descent and
	// the ambiguity sweep never touch a locked tag, and adoption copies
	// back active bits alone.
	active := g.activeTags
	passes := 1 + s.restarts
	allBits := ws.allBits[:passes*s.k]
	passErr := ws.passErr[:passes]
	for _, i := range active {
		allBits[i] = myBits[i]
	}
	passErr[0] = bestErr
	bestPass := 0

	if s.restarts > 0 {
		ws.src.Reseed(prng.Mix3(s.curBase, uint64(s.curSlot), uint64(p)))
		rst := &ws.rst
		for pass := 1; pass < passes; pass++ {
			bhat := bits.Vector(allBits[pass*s.k : (pass+1)*s.k])
			randomBitsInto(&ws.src, bhat, active)
			// Build the restart's state from the locked-base residual
			// in one fused sweep over the active rows only: unlocked
			// contributions and live rows are all that remain.
			rst.residual = rst.residual[:g.L]
			rst.buildFromBase(g, s.lockedBase[p], bhat)
			cFlips += uint64(rst.descend(g, bhat, locked, s.eps))
			cRestarts++
			errV := rst.normSqActive(g) + s.errInactive[p]
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
	}
	s.errs[p] = bestErr
	s.costDescent.Add(1)
	if cRestarts > 0 {
		s.costRestarts.Add(cRestarts)
	}
	if cFlips > 0 {
		s.costFlips.Add(cFlips)
	}

	// Margins are not materialized here: the adopted state's gain table
	// is exactly the fresh-margin formula's input, and DecodeSlot's
	// merge reads the gains directly. Locked tags' −∞ gains surface as
	// +∞ margins; the outer loop never gates on a locked tag's margin.
	arow := s.ambiguous[p*s.k : (p+1)*s.k]
	for _, i := range active {
		arow[i] = false
	}
	g.markAmbiguousPruned(allBits, passErr, bestPass, myBits, arow, s.curThresh)
}

// rebuildPosition re-derives position p's cached state from its
// observations and current bits when the session state is invalid (a
// retap of a locked tag, a block fade, a grow, a window shrink): the
// locked-base residual and the inactive rows' banked energy over the
// live rows, the residual wherever a reader needs it, then the active
// tags' S-sums, gains and tree. Both residual builds subtract each
// row's set-bit colliders in ascending tag order, so the floats do not
// depend on which one runs. The locked base costs O(live rows + locked
// nnz), the one part that still scales with everyone who joined; with
// few active rows the rest is O(active).
func (s *Session) rebuildPosition(p int, st *descentState, ws *workerState, b bits.Vector, locked []bool) {
	g := &s.g
	y := s.ys[p][:g.L]
	lbp := s.lockedBase[p][:g.L]
	copy(lbp[g.retired:], y[g.retired:])
	if locked != nil {
		for i, l := range locked {
			if l && b[i] {
				h := g.taps[i]
				for _, row := range g.colRows[i] {
					if g.soft && row < g.staleCut[i] {
						lbp[row] -= complex(g.softAlpha[i], 0) * h
					} else {
						lbp[row] -= h
					}
				}
			}
		}
	}
	s.lockedBase[p] = lbp
	acc := 0.0
	// Retired rows also have an empty rowActive, but they are gone from
	// the model entirely — only live frozen rows bank energy.
	for row := g.retired; row < g.L; row++ {
		if len(g.rowActive[row]) == 0 {
			x := lbp[row]
			acc += real(x)*real(x) + imag(x)*imag(x)
		}
	}
	s.errInactive[p] = acc
	st.residual = st.residual[:g.L]
	if g.soft || 2*len(g.activeRows) > g.L-g.retired {
		// Most live rows are active (few tags locked): the column-major
		// build walks only the set-bit columns, about half the entries a
		// row sweep would. Soft down-weighting (heavy drift, few locks)
		// keeps this one weighted builder too.
		g.residualInto(st.residual, y, b)
	} else {
		// Few active rows (most tags locked): sweep just those rows.
		// setTap[i] is tag i's tap where its bit is set and 0 elsewhere —
		// subtracting a zero is exact, and the row loop carries no
		// mispredict on the random bits.
		setTap := ws.setTap[:g.K]
		for i := range setTap {
			if b[i] {
				setTap[i] = g.taps[i]
			} else {
				setTap[i] = 0
			}
		}
		for _, row := range g.activeRows {
			r := y[row]
			for _, i := range g.rowCols[row] {
				r -= setTap[i]
			}
			st.residual[row] = r
		}
	}
	st.rederive(g, b, locked)
}

// ConditionalMargin is the session-cached form of
// Graph.ConditionalMarginScratch: it reuses position p's residual,
// S-sums, gains and error instead of rebuilding them, so the outer
// loop's acceptance gate costs one O(w_i) flip plus the re-descent
// rather than two from-scratch residual builds per (position, tag).
// It must be called from the session's owning goroutine (it shares one
// workspace), after a DecodeSlot and before the next state mutation
// (AppendSlot, RetapAll, Grow) — the cached error it reuses is only
// valid inside that window.
func (s *Session) ConditionalMargin(p, i int, locked []bool) float64 {
	g := &s.g
	w := g.Degree(i)
	den := g.tapPower[i] * float64(w)
	if g.soft {
		den = g.tapPower[i] * g.effWeight(i)
	}
	if w == 0 || den == 0 {
		return 0
	}
	base := s.errs[p]

	st := &s.cond.rst
	st.residual = st.residual[:len(s.states[p].residual)]
	st.copyActiveFrom(g, &s.states[p])
	bhat := bits.Vector(s.cond.allBits[:s.k])
	copy(bhat, s.posBits[p*s.k:(p+1)*s.k])
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
	errV := st.normSqActive(g) + s.errInactive[p]
	return (errV - base) / den
}

// growComplex and friends resize a session-owned buffer to length n,
// reusing capacity with power-of-two headroom. Contents are not
// preserved; callers re-derive them.
func growComplex(buf []complex128, n int) []complex128 {
	if cap(buf) < n {
		return make([]complex128, n, scratch.CeilPow2(n))
	}
	return buf[:n]
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n, scratch.CeilPow2(n))
	}
	return buf[:n]
}

func growBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n, scratch.CeilPow2(n))
	}
	return buf[:n]
}

func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n, scratch.CeilPow2(n))
	}
	return buf[:n]
}

func growSlices(buf [][]complex128, n int) [][]complex128 {
	if cap(buf) < n {
		return make([][]complex128, n, scratch.CeilPow2(n))
	}
	return buf[:n]
}
