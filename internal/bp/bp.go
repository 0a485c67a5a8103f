// Package bp implements Buzz's belief-propagation decoder (§6c, Alg. 1):
// a gain-driven bit-flipping search over the bipartite graph whose left
// vertices are the K tags' bits at one message position and whose right
// vertices are the L received collision symbols.
//
// Given the observation y = D·H·b + n, the decoder seeks the binary
// vector b̂ minimizing ‖D·H·b̂ − y‖². It maintains, for every bit i, the
// gain G_i — the reduction in squared error from flipping bit i — and
// repeatedly flips the highest-gain bit until no flip helps. Because D is
// sparse, a flip only perturbs the symbols tag i participates in, so only
// the gains of tags sharing a symbol with i ("neighbors of neighbors" in
// the paper's graph) need updating.
//
// The incremental identity doing the work: with residual r = y − D·H·b̂,
// flipping bit i changes b̂_i by δ ∈ {+1, −1} and
//
//	G_i = ‖r‖² − ‖r − δ·h_i·d_i‖² = 2δ·Re⟨h_i·d_i, r⟩ − |h_i|²·w_i
//
// where d_i is column i of D and w_i its weight. Two further structural
// facts keep every step cheap:
//
//   - Re⟨h_i·d_i, r⟩ = Re(conj(h_i)·S_i) where S_i = Σ_{rows ∋ i} r[row].
//     The search maintains S_i incrementally: a flip of bit j changes
//     every touched residual entry by the same constant −δ·h_j, so each
//     neighbor's S update is one complex subtraction — O(1) instead of
//     re-accumulating the O(w_i) correlation.
//   - The "flip the highest-gain bit" selection runs on a tournament
//     tree over the gain table (argmax with ties broken toward the lower
//     index, exactly the order the straight scan produced), so a flip
//     costs O(touched·log K) instead of an O(K) rescan per flip.
//
// CRC-gated freezing (§6d): once a tag's message passes its checksum in
// the outer loop, the caller locks that tag. Locked bits get gain −∞ so
// later flips can never undo a verified message — the paper's
// "set their gains to be negative infinite" interference-cancellation
// trick.
//
// The graph itself is rateless-friendly: the outer loop grows it one
// collision row at a time with AppendRow (O(colliders)), and Session
// (session.go) carries each bit position's residual, S-sums and gains
// across slots so a new collision costs O(colliders) per position rather
// than a from-scratch rebuild.
package bp

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/bits"
	"repro/internal/dsp"
	"repro/internal/prng"
	"repro/internal/scratch"
)

// Graph is the decoding graph for one block of collisions: the sparse
// participation structure D plus the tags' channel taps. It grows one
// row per collision slot (AppendRow) and, under a coherence-windowed
// decode, retires the oldest (RetireRow); every adjacency list owns its
// backing storage with power-of-two headroom, so a steady-state transfer
// (same shape as a previous one on the same Graph) allocates nothing.
type Graph struct {
	// K is the number of tags (left vertices).
	K int
	// L is the number of collision symbols (right vertices).
	L int
	// colRows[i] lists the symbols tag i participates in.
	colRows [][]int
	// rowCols[j] lists the tags participating in symbol j.
	rowCols [][]int
	// rowActive[j] is rowCols[j] minus deactivated (CRC-locked) tags —
	// the flip fan-out's view. A locked tag's bits never change and its
	// gain is pinned at −∞, so the descent has no reason to update its
	// sums; dropping it here makes late-transfer flips (when most tags
	// are verified) touch only the remaining stragglers.
	rowActive   [][]int
	deactivated []bool
	// activeTags lists (ascending) the tags not deactivated — the
	// unlocked set every per-pass kernel walks instead of all K, since a
	// locked tag's bits, sums and gain never change again. DeactivateTag
	// removes, AddTag appends (a new tag has the largest index).
	activeTags []int
	// activeRows lists (ascending) the rows whose rowActive is still
	// non-empty — the only rows a restart build or re-descent can ever
	// touch. Rows whose every collider has locked drop out; their
	// residual entries are frozen and the Session carries their error
	// contribution as a per-position constant.
	activeRows []int
	// flatTags/flatStart are a CSR snapshot of the active adjacency,
	// rebuilt by SnapshotActive once per slot: flatTags[flatStart[x] :
	// flatStart[x+1]] are the active tags of activeRows[x], packed
	// contiguously so the restart builder streams one array instead of
	// chasing per-row slice headers.
	flatTags  []int
	flatStart []int
	// newlyInactive accumulates rows emptied by DeactivateTag calls
	// until the caller consumes them (TakeNewlyInactive).
	newlyInactive []int
	// retired counts the dead prefix rows dropped by RetireRow: rows
	// [0, retired) have left every adjacency list but keep their indices,
	// so L and all later row numbers never shift under a caller's cached
	// per-row state. The graph invariant "rows only append" becomes
	// "live rows are the window [retired, L)".
	retired int
	// spare recycles retired rows' adjacency backing: row indices are
	// never reused, so without it a sliding window would allocate fresh
	// row storage every slot forever. RetireRow pushes, AppendRow pops —
	// the windowed steady state is allocation-free like the growing one.
	spare [][]int
	// adjSlab and colSlab back ReserveAdjacency's pre-carved per-row
	// adjacency regions and per-tag row lists; zero until a caller
	// reserves, after which the append paths stop touching the heap.
	adjSlab []int
	colSlab []int
	// Soft stale-tap down-weighting — the per-tag coherence window's
	// soft mode. Rows of tag i with index below staleCut[i] are "stale":
	// older than the tag's coherence window, so the current tap h_i is a
	// poor model of what the tag transmitted there. Instead of removing
	// the tag from those rows (RetireTagRows, the hard mode), soft mode
	// scales its tap in them by softAlpha[i] ∈ [0, 1] — a shrinkage of
	// the stale contribution toward zero, sized by the drift the session
	// banked against the tag (Session.SoftRetireTag derives α from the
	// banked drift ratio). All weights are 1 until SetSoftCut arms the
	// mode, and every kernel keeps its branch-free fast path when soft
	// is off, so unwindowed decodes are byte-identical to before.
	soft      bool
	staleCut  []int
	softAlpha []float64
	// staleCnt[i] counts tag i's live stale rows (the colRows[i] prefix
	// below staleCut[i]) — the bookkeeping behind the effective |h|²·w
	// constant wPow[i] = |h_i|²·(α_i²·stale + fresh).
	staleCnt []int
	// anyStale reports that at least one tag has a nonzero stale cut:
	// the Session's incremental patch paths (RetapAll, Retire) are not
	// weight-aware, so they fall back to a rebuild while this holds.
	anyStale bool
	// taps[i] is tag i's channel coefficient h_i.
	taps []complex128
	// tapPower[i] caches |h_i|².
	tapPower []float64
	// tapRe and tapIm cache Re(h_i) and Im(h_i) — the hoisted conjugate
	// taps of the correlation kernels: Re(conj(h)·s) = Re(h)·Re(s) +
	// Im(h)·Im(s), two real multiplies instead of a complex one.
	tapRe, tapIm []float64
	// wPow[i] caches |h_i|²·w_i — the gain formula's constant term,
	// updated as rows append so gainOf is pure arithmetic on loads.
	wPow []float64
}

// NewGraph builds the decoding graph from the participation matrix D
// (rows = slots, cols = tags) and the channel taps. It panics on a
// tap/column count mismatch: decoding with misaligned channels would
// produce silent garbage.
func NewGraph(d *bits.Matrix, taps []complex128) *Graph {
	g := &Graph{}
	g.Rebuild(d, taps)
	return g
}

// Reset empties the graph to K tags and zero rows, keeping every
// adjacency list's capacity, and installs the taps. The rateless loop
// calls it once per transfer on a long-lived Graph and then grows the
// rows back with AppendRow.
func (g *Graph) Reset(k int, taps []complex128) {
	if k != len(taps) {
		panic(fmt.Sprintf("bp: graph has %d columns but %d taps supplied", k, len(taps)))
	}
	if cap(g.colRows) < k {
		next := make([][]int, k, scratch.CeilPow2(k))
		copy(next, g.colRows)
		g.colRows = next
	}
	g.colRows = g.colRows[:k]
	for i := range g.colRows {
		g.colRows[i] = g.colRows[i][:0]
	}
	g.rowCols = g.rowCols[:0]
	g.rowActive = g.rowActive[:0]
	g.activeRows = g.activeRows[:0]
	g.newlyInactive = g.newlyInactive[:0]
	if cap(g.deactivated) < k {
		g.deactivated = make([]bool, k, scratch.CeilPow2(k))
	}
	g.deactivated = g.deactivated[:k]
	clear(g.deactivated)
	g.activeTags = reserveCap(g.activeTags[:0], k)
	for i := 0; i < k; i++ {
		g.activeTags = append(g.activeTags, i)
	}
	if cap(g.staleCut) < k {
		g.staleCut = make([]int, k, scratch.CeilPow2(k))
		g.softAlpha = make([]float64, k, scratch.CeilPow2(k))
		g.staleCnt = make([]int, k, scratch.CeilPow2(k))
	}
	g.staleCut = g.staleCut[:k]
	g.softAlpha = g.softAlpha[:k]
	g.staleCnt = g.staleCnt[:k]
	clear(g.staleCut)
	clear(g.staleCnt)
	for i := range g.softAlpha {
		g.softAlpha[i] = 1
	}
	g.soft = false
	g.anyStale = false
	g.K = k
	g.L = 0
	g.retired = 0
	g.SetTaps(taps)
}

// alphaAt returns the model weight of tag i's tap in row r: softAlpha[i]
// when the row is stale under the soft per-tag window, 1 otherwise.
func (g *Graph) alphaAt(r, i int) float64 {
	if r < g.staleCut[i] {
		return g.softAlpha[i]
	}
	return 1
}

// AnyStale reports whether any tag currently has soft-down-weighted
// stale rows; the Session's weight-unaware incremental patches must
// take their rebuild fall-backs while it holds.
func (g *Graph) AnyStale() bool { return g.anyStale }

// SetTaps replaces the channel taps without touching the collision
// structure — the decision-directed channel-refinement path re-taps the
// graph every slot while D keeps growing incrementally.
func (g *Graph) SetTaps(taps []complex128) {
	if len(taps) != g.K {
		panic(fmt.Sprintf("bp: SetTaps got %d taps for %d columns", len(taps), g.K))
	}
	g.taps = append(g.taps[:0], taps...)
	g.tapPower = g.tapPower[:0]
	g.tapRe = g.tapRe[:0]
	g.tapIm = g.tapIm[:0]
	for _, h := range taps {
		re, im := real(h), imag(h)
		g.tapPower = append(g.tapPower, re*re+im*im)
		g.tapRe = append(g.tapRe, re)
		g.tapIm = append(g.tapIm, im)
	}
	g.wPow = g.wPow[:0]
	for i := range taps {
		g.wPow = append(g.wPow, g.tapPower[i]*g.effWeight(i))
	}
}

// effWeight returns tag i's effective participation weight: the plain
// degree w_i, or α_i²·stale + fresh under soft down-weighting. The
// non-soft form is exactly float64(w_i), so existing decodes are
// untouched.
func (g *Graph) effWeight(i int) float64 {
	w := len(g.colRows[i])
	if !g.soft || g.staleCnt[i] == 0 {
		return float64(w)
	}
	a := g.softAlpha[i]
	return a*a*float64(g.staleCnt[i]) + float64(w-g.staleCnt[i])
}

// RetapTag installs a new tap for tag i, updating the derived caches
// (|h|², hoisted conjugate parts, |h|²·w) in O(1). Callers owning
// cached descent state must patch or rebuild it themselves — that is
// Session.RetapAll's job.
func (g *Graph) RetapTag(i int, h complex128) {
	re, im := real(h), imag(h)
	g.taps[i] = h
	g.tapPower[i] = re*re + im*im
	g.tapRe[i], g.tapIm[i] = re, im
	g.wPow[i] = g.tapPower[i] * g.effWeight(i)
}

// ReserveTags grows the per-tag buffers' capacity for up to kCap tags
// without changing K, so mid-transfer AddTags up to the cap allocate
// nothing — the admission-time sizing behind Session.Reserve.
func (g *Graph) ReserveTags(kCap int) {
	if kCap <= cap(g.colRows) &&
		kCap <= cap(g.deactivated) && kCap <= cap(g.staleCut) &&
		kCap <= cap(g.taps) && kCap <= cap(g.activeTags) {
		return
	}
	g.colRows = reserveCap(g.colRows, kCap)
	g.deactivated = reserveCap(g.deactivated, kCap)
	g.activeTags = reserveCap(g.activeTags, kCap)
	g.staleCut = reserveCap(g.staleCut, kCap)
	g.softAlpha = reserveCap(g.softAlpha, kCap)
	g.staleCnt = reserveCap(g.staleCnt, kCap)
	g.taps = reserveCap(g.taps, kCap)
	g.tapPower = reserveCap(g.tapPower, kCap)
	g.tapRe = reserveCap(g.tapRe, kCap)
	g.tapIm = reserveCap(g.tapIm, kCap)
	g.wPow = reserveCap(g.wPow, kCap)
}

// reserveCap grows buf's capacity to at least n, preserving contents
// and length.
func reserveCap[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf
	}
	next := make([]T, len(buf), scratch.CeilPow2(n))
	copy(next, buf)
	return next
}

// AddTag grows the graph by one column: a tag joining the round
// mid-transfer, with no participation yet, active, carrying the given
// tap. Existing rows are untouched (the tag was silent in them).
func (g *Graph) AddTag(h complex128) {
	k := g.K
	if k < cap(g.colRows) {
		g.colRows = g.colRows[:k+1]
		g.colRows[k] = g.colRows[k][:0]
	} else {
		g.colRows = append(g.colRows, nil)
	}
	g.deactivated = append(g.deactivated, false)
	g.activeTags = append(g.activeTags, k)
	g.staleCut = append(g.staleCut, 0)
	g.softAlpha = append(g.softAlpha, 1)
	g.staleCnt = append(g.staleCnt, 0)
	re, im := real(h), imag(h)
	g.taps = append(g.taps, h)
	g.tapPower = append(g.tapPower, re*re+im*im)
	g.tapRe = append(g.tapRe, re)
	g.tapIm = append(g.tapIm, im)
	g.wPow = append(g.wPow, 0)
	g.K = k + 1
}

// AppendRow grows the graph by one collision row: row[i] reports whether
// tag i participates in the new symbol. Cost is O(K) for the scan and
// O(colliders) for the adjacency updates; storage is reused across
// Reset cycles.
func (g *Graph) AppendRow(row bits.Vector) {
	if len(row) != g.K {
		panic(fmt.Sprintf("bp: AppendRow length %d != K %d", len(row), g.K))
	}
	r := g.L
	if r < cap(g.rowCols) {
		g.rowCols = g.rowCols[:r+1]
	} else {
		g.rowCols = append(g.rowCols, nil)
	}
	if r < cap(g.rowActive) {
		g.rowActive = g.rowActive[:r+1]
	} else {
		g.rowActive = append(g.rowActive, nil)
	}
	rc := g.rowCols[r]
	if rc == nil {
		rc = g.popSpare()
	}
	rc = rc[:0]
	ra := g.rowActive[r]
	if ra == nil {
		ra = g.popSpare()
	}
	ra = ra[:0]
	for i, on := range row {
		if on {
			rc = append(rc, i)
			g.colRows[i] = append(g.colRows[i], r)
			g.wPow[i] += g.tapPower[i]
			if !g.deactivated[i] {
				ra = append(ra, i)
			}
		}
	}
	g.rowCols[r] = rc
	g.rowActive[r] = ra
	if len(ra) > 0 {
		g.activeRows = append(g.activeRows, r)
	}
	g.L = r + 1
}

// RetireRow removes the oldest live collision row from the graph — the
// symmetric inverse of AppendRow, for the coherence-windowed decode in
// which rows older than the channel's coherence time are model error
// rather than evidence. The row leaves every collider's adjacency list
// and the per-tag |h|²·w constants in O(colliders) (plus an O(live
// rows) activeRows prune when the row was still active), but its index
// is never reused: rows [0, retired) keep their numbers, so L and
// every cached per-row index a Session holds stay stable. Callers
// owning cached descent state must subtract the row's contribution
// first — that is Session.Retire's job.
func (g *Graph) RetireRow() {
	r := g.retired
	if r >= g.L {
		panic("bp: RetireRow with no live rows")
	}
	for _, i := range g.rowCols[r] {
		cr := g.colRows[i]
		// Rows append in ascending order and retire in ascending order,
		// so the oldest live row heads every collider's row list.
		if cr[0] != r {
			panic("bp: adjacency out of order in RetireRow")
		}
		copy(cr, cr[1:])
		g.colRows[i] = cr[:len(cr)-1]
		if r < g.staleCut[i] {
			g.staleCnt[i]--
		}
		if len(cr) == 1 {
			// Snap to exact zero: |h|²·w must vanish with the degree,
			// and the incremental subtractions leave float dust that
			// would poison the margin normalization −G/(|h|²·w).
			g.wPow[i] = 0
		} else if a := g.alphaAt(r, i); a != 1 {
			g.wPow[i] -= g.tapPower[i] * a * a
		} else {
			g.wPow[i] -= g.tapPower[i]
		}
	}
	if len(g.rowActive[r]) > 0 {
		// activeRows is ascending, so a live oldest row can only be
		// its first entry.
		if g.activeRows[0] != r {
			panic("bp: activeRows out of order in RetireRow")
		}
		copy(g.activeRows, g.activeRows[1:])
		g.activeRows = g.activeRows[:len(g.activeRows)-1]
	}
	if c := g.rowCols[r]; cap(c) > 0 {
		g.spare = append(g.spare, c[:0])
	}
	g.rowCols[r] = nil
	if c := g.rowActive[r]; cap(c) > 0 {
		g.spare = append(g.spare, c[:0])
	}
	g.rowActive[r] = nil
	g.retired = r + 1
}

// RetireTagRows removes tag i from every live collision row with index
// below throughRow — the per-tag analogue of RetireRow, for the
// heterogeneous-mobility decode in which only a mover's old rows are
// model error while its stationary neighbors' evidence stays good. The
// rows themselves stay live for their other colliders: only tag i's
// adjacency entries, |h_i|²·w constant and row memberships go, in
// O(rows removed · colliders) plus an O(live rows) activeRows prune
// when a row's last active collider leaves. Rows emptied of active
// tags are reported via TakeNewlyInactive, exactly as DeactivateTag
// reports them. Returns the number of rows the tag was removed from.
//
// Callers owning cached descent state must subtract the tag's
// contribution from those rows first — that is Session.RetireTag's job.
func (g *Graph) RetireTagRows(i, throughRow int) int {
	cr := g.colRows[i]
	n := 0
	for n < len(cr) && cr[n] < throughRow {
		n++
	}
	if n == 0 {
		return 0
	}
	active := !g.deactivated[i]
	emptied := false
	for _, r := range cr[:n] {
		rc := g.rowCols[r]
		for x, j := range rc {
			if j == i {
				copy(rc[x:], rc[x+1:])
				g.rowCols[r] = rc[:len(rc)-1]
				break
			}
		}
		if active {
			ra := g.rowActive[r]
			for x, j := range ra {
				if j == i {
					copy(ra[x:], ra[x+1:])
					g.rowActive[r] = ra[:len(ra)-1]
					break
				}
			}
			if len(g.rowActive[r]) == 0 {
				g.newlyInactive = append(g.newlyInactive, r)
				emptied = true
			}
		}
		if r < g.staleCut[i] {
			g.staleCnt[i]--
		}
	}
	copy(cr, cr[n:])
	g.colRows[i] = cr[:len(cr)-n]
	if len(g.colRows[i]) == 0 {
		// Snap, as in RetireRow: the margin normalization divides by this.
		g.wPow[i] = 0
	} else {
		g.wPow[i] = g.tapPower[i] * g.effWeight(i)
	}
	if emptied {
		keep := g.activeRows[:0]
		for _, row := range g.activeRows {
			if len(g.rowActive[row]) > 0 {
				keep = append(keep, row)
			}
		}
		g.activeRows = keep
	}
	return n
}

// SetSoftCut advances tag i's soft stale boundary to throughRow and
// installs the down-weight alpha for its stale rows — the soft
// alternative to RetireTagRows: the tag keeps participating in its old
// rows, but at α·h_i instead of h_i. The effective |h|²·w constant is
// re-derived; cached descent state must be rebuilt by the owner when
// changed is reported (the weight change touches every stale row of
// the tag). Returns the number of rows that newly became stale and
// whether anything (boundary or live weight) actually changed; a call
// that would only re-stamp an unused alpha is a no-op, leaving the
// graph byte-identical.
func (g *Graph) SetSoftCut(i, throughRow int, alpha float64) (newly int, changed bool) {
	cut := min(throughRow, g.L)
	if cut < g.staleCut[i] {
		cut = g.staleCut[i]
	}
	for _, r := range g.colRows[i] {
		if r >= cut {
			break
		}
		if r >= g.staleCut[i] {
			newly++
		}
	}
	if newly == 0 && (g.staleCnt[i] == 0 || alpha == g.softAlpha[i]) {
		return 0, false
	}
	g.soft = true
	g.staleCut[i] = cut
	g.softAlpha[i] = alpha
	g.staleCnt[i] += newly
	if g.staleCnt[i] > 0 {
		g.anyStale = true
	}
	g.wPow[i] = g.tapPower[i] * g.effWeight(i)
	return newly, true
}

// StaleRows returns the number of tag i's live rows currently under
// soft down-weighting.
func (g *Graph) StaleRows(i int) int { return g.staleCnt[i] }

// popSpare hands back a retired row's adjacency backing, or nil.
func (g *Graph) popSpare() []int {
	n := len(g.spare)
	if n == 0 {
		return nil
	}
	s := g.spare[n-1]
	g.spare[n-1] = nil
	g.spare = g.spare[:n-1]
	return s
}

// adjacencyReserveEntries caps the dense adjacency reservation at 8M
// ints (64 MiB of slab): small enough that a 512 MiB-limited sweep
// never sees the worst-case carve, large enough that every CI-sized
// transfer keeps its zero-alloc warm path.
const adjacencyReserveEntries = 8 << 20

// ReserveRows pre-sizes the per-row header tables for a transfer of at
// most n rows, so a sliding-window steady state (whose row indices
// grow past the live count forever) never reallocates them mid-slot.
// The Session calls it once per Begin with its slot budget.
func (g *Graph) ReserveRows(n int) {
	if cap(g.rowCols) < n {
		next := make([][]int, g.L, scratch.CeilPow2(n))
		copy(next, g.rowCols)
		g.rowCols = next
	}
	if cap(g.rowActive) < n {
		next := make([][]int, g.L, scratch.CeilPow2(n))
		copy(next, g.rowActive)
		g.rowActive = next
	}
}

// ReserveAdjacency pre-carves every row's adjacency lists and every
// tag's row list out of two slabs, so a transfer of at most n rows over
// at most kCap tags appends rows and row memberships without touching
// the heap: AppendRow's and AddTag's recycle-by-index paths find a
// capacity-kCap (resp. capacity-n) region already parked at each index,
// where an unreserved graph builds them by incremental append — several
// small allocations per slot, forever. Regions are cap-limited
// three-index slices, so a row that outgrows its region (K grown past
// kCap mid-transfer) detaches onto a fresh allocation without bleeding
// into a neighbor, and the in-place compactions (RetireRow,
// RetireTagRows, DeactivateTag) stay inside their region by
// construction. Carving rebinds every index, so the call is only legal
// on an empty graph (a fresh Reset); on a live one it is a no-op.
func (g *Graph) ReserveAdjacency(kCap, n int) {
	if kCap < 1 || n < 1 || g.L != 0 || g.retired != 0 {
		return
	}
	// The dense carve sizes for the worst case — every tag in every row
	// — which is 3·n·kCap ints. A warehouse-scale transfer (tens of
	// thousands of tags over tens of thousands of slots) would turn that
	// into gigabytes for adjacency that stays ~99% empty: past the
	// budget the graph builds its lists incrementally instead, trading
	// a few small allocations per slot for bounded memory. Decode output
	// is unaffected either way — reservation is a pure allocator hint.
	if 3*n*kCap > adjacencyReserveEntries {
		g.ReserveRows(n)
		return
	}
	g.ReserveRows(n)
	adjN := 2 * n * kCap
	if cap(g.adjSlab) < adjN {
		g.adjSlab = make([]int, adjN)
	}
	adj := g.adjSlab[:adjN]
	rc := g.rowCols[:n]
	ra := g.rowActive[:n]
	for r := 0; r < n; r++ {
		rc[r] = adj[(2*r)*kCap : (2*r)*kCap : (2*r+1)*kCap]
		ra[r] = adj[(2*r+1)*kCap : (2*r+1)*kCap : (2*r+2)*kCap]
	}
	g.rowCols = rc[:0]
	g.rowActive = ra[:0]
	// Row indices never reach n (AppendSlot enforces the budget), so
	// every append finds its carved region in place and the spare pool
	// is dead weight from here on.
	g.spare = g.spare[:0]
	colN := kCap * n
	if cap(g.colSlab) < colN {
		g.colSlab = make([]int, colN)
	}
	col := g.colSlab[:colN]
	g.colRows = reserveCap(g.colRows, kCap)
	cs := g.colRows[:kCap]
	for i := 0; i < kCap; i++ {
		cs[i] = col[i*n : i*n : (i+1)*n]
	}
	g.colRows = cs[:g.K]
	g.activeRows = reserveCap(g.activeRows, n)[:len(g.activeRows)]
	g.newlyInactive = reserveCap(g.newlyInactive, n)[:len(g.newlyInactive)]
}

// Retired returns the number of retired prefix rows; the live graph is
// the window [Retired(), L).
func (g *Graph) Retired() int { return g.retired }

// DeactivateTag drops tag i from every row's flip fan-out and from the
// active tag list: callers do this when the outer loop CRC-locks the
// tag, whose sums and gains are dead state from then on. Rows left with
// no active tags are pruned from activeRows and reported via
// TakeNewlyInactive. O(w_i · colliders + active), once per locked tag.
func (g *Graph) DeactivateTag(i int) {
	if g.deactivated[i] {
		return
	}
	g.deactivated[i] = true
	if x, ok := slices.BinarySearch(g.activeTags, i); ok {
		g.activeTags = slices.Delete(g.activeTags, x, x+1)
	}
	emptied := false
	for _, row := range g.colRows[i] {
		ra := g.rowActive[row]
		for x, j := range ra {
			if j == i {
				g.rowActive[row] = append(ra[:x], ra[x+1:]...)
				break
			}
		}
		if len(g.rowActive[row]) == 0 {
			g.newlyInactive = append(g.newlyInactive, row)
			emptied = true
		}
	}
	if emptied {
		// Compact activeRows in place, preserving ascending order.
		keep := g.activeRows[:0]
		for _, row := range g.activeRows {
			if len(g.rowActive[row]) > 0 {
				keep = append(keep, row)
			}
		}
		g.activeRows = keep
	}
}

// TakeNewlyInactive returns the rows emptied since the last call and
// resets the accumulator. The Session folds their frozen residual
// energy into its per-position error constant.
func (g *Graph) TakeNewlyInactive() []int {
	rows := g.newlyInactive
	g.newlyInactive = g.newlyInactive[:0]
	return rows
}

// SnapshotActive packs the active adjacency into the flat CSR the
// restart builder streams. The Session calls it once per slot, after
// the graph grew and locks folded in; it is O(active nnz).
func (g *Graph) SnapshotActive() {
	g.flatStart = g.flatStart[:0]
	g.flatTags = g.flatTags[:0]
	for _, row := range g.activeRows {
		g.flatStart = append(g.flatStart, len(g.flatTags))
		g.flatTags = append(g.flatTags, g.rowActive[row]...)
	}
	g.flatStart = append(g.flatStart, len(g.flatTags))
}

// Rebuild re-derives the graph from d and taps in place, reusing the
// adjacency storage of earlier builds; a steady-state rebuild (same
// dimensions as a previous one) allocates nothing. Callers that grow D
// one row per slot should prefer Reset + AppendRow, which skips the
// full matrix scan.
func (g *Graph) Rebuild(d *bits.Matrix, taps []complex128) {
	if d.Cols != len(taps) {
		panic(fmt.Sprintf("bp: D has %d columns but %d taps supplied", d.Cols, len(taps)))
	}
	g.Reset(d.Cols, taps)
	for r := 0; r < d.Rows; r++ {
		g.AppendRow(d.RowView(r))
	}
}

// Degree returns the participation count of tag i.
func (g *Graph) Degree(i int) int { return len(g.colRows[i]) }

// RowTags returns the tags participating in collision row r. The slice
// aliases the graph's storage; callers must not modify it.
func (g *Graph) RowTags(r int) []int { return g.rowCols[r] }

// residualInto computes r = y − D·H·b into dst (length L) and returns
// dst — the one definition of the residual model shared by the descent,
// the margin computation and the error evaluation.
func (g *Graph) residualInto(dst dsp.Vec, y dsp.Vec, b bits.Vector) dsp.Vec {
	copy(dst, y)
	if g.soft {
		for i, on := range b {
			if on {
				h := g.taps[i]
				cut, a := g.staleCut[i], complex(g.softAlpha[i], 0)
				for _, row := range g.colRows[i] {
					if row < cut {
						dst[row] -= a * h
					} else {
						dst[row] -= h
					}
				}
			}
		}
		return dst
	}
	for i, on := range b {
		if on {
			h := g.taps[i]
			for _, row := range g.colRows[i] {
				dst[row] -= h
			}
		}
	}
	return dst
}

// Options tunes a decode.
type Options struct {
	// Init seeds the search. Nil means a uniform random start (the
	// paper's initialization); the outer rateless loop passes the
	// previous slot-count's estimate so added collisions refine rather
	// than restart.
	Init bits.Vector
	// Locked marks tags whose bit values are frozen (CRC-verified).
	// Locked tags keep their Init value and are never flipped; Init must
	// be non-nil wherever Locked is true.
	Locked []bool
	// Restarts runs the search from this many additional random
	// initializations and keeps the lowest-error result. Zero means a
	// single pass.
	Restarts int
	// GainEps is the minimum gain worth flipping for; it guards against
	// floating-point limit cycles. Default 1e-12.
	GainEps float64
	// Scratch, when non-nil, supplies every working buffer of the decode
	// — candidate vectors, residuals, gains — from a per-worker arena
	// instead of the heap. The numerics are identical either way. With a
	// Scratch set, Result.Bits and Result.Ambiguous are arena-backed:
	// they remain valid only until the caller's next Release or Reset of
	// the arena, so callers bracket Decode with Mark/Release and copy out
	// anything they keep.
	Scratch *scratch.Scratch
}

// Result reports a decode outcome.
type Result struct {
	// Bits is the best b̂ found.
	Bits bits.Vector
	// Error is ‖D·H·b̂ − y‖² at Bits.
	Error float64
	// Flips counts bit flips performed across all restarts.
	Flips int
	// Ambiguous flags tags whose bit differs between the best solution
	// and another restart's solution of nearly equal error. This is the
	// decoder's defense against signed near-zero subset sums of taps
	// (Σ ±h_i ≈ 0): a coordinated multi-bit flip over such a subset is
	// invisible to the observations, defeats single-flip margins, and
	// cannot be traversed by greedy conditional re-optimization — but
	// independent random restarts land in both basins and expose the
	// tie. "Nearly equal" means the error gap is below half the tag's
	// own collision energy |h_i|²: the gap an honest single-bit error
	// would create.
	Ambiguous []bool
}

// descentState is the incremental working set of one bit-flipping search:
// the residual, the per-tag residual row-sums S_i, the gain table derived
// from them, and the tournament tree that serves argmax queries. Session
// persists one of these per bit position across collision slots; the
// standalone Decode builds them in scratch per pass.
type descentState struct {
	// residual is r = y − D·H·b for the state's current bits. A Session
	// maintains only the active rows' entries: no reader looks at a row
	// whose every collider is locked.
	residual dsp.Vec
	// sum[i] is S_i = Σ_{rows ∋ i} residual[row].
	sum []complex128
	// gain[i] is G_i (−∞ for locked tags).
	gain []float64
	// bSign[i] is −1 when b[i] is set, +1 otherwise — the flip
	// direction δ as a multiplicand, so the gain kernel needs no
	// data-dependent branch (random candidate bits made the old
	// `if bit { corr = −corr }` a steady branch-mispredict).
	bSign []float64
	// maskTap[i] is taps[i] where b[i] is set and unlocked, 0
	// elsewhere — the restart builder's branchless row kernel
	// (subtracting complex(0,0) is exact).
	maskTap []complex128
	// tree is a tournament tree over gain: tree[1] is the root, leaves
	// start at leafBase, node values are tag indices (−1 = empty).
	tree     []int
	leafBase int
	// dirty and inDirty are the flip loop's dirty-list: a flip touches
	// each neighbor once per shared row, but its gain and tree path are
	// repaired once per unique neighbor after the sums settle.
	dirty   []int
	inDirty []bool
	// useTree selects the argmax structure: the tournament tree pays
	// off past treeCutoverK active tags; below it a scan of the active
	// tags' gains beats the tree's pointer-chasing constants. Both
	// implement the same (gain desc, index asc) total order, so the
	// flip sequence is identical either way.
	useTree bool
}

// treeCutoverK is the active (unlocked) tag count above which descents
// query the tournament tree instead of scanning the active tags' gains.
// At the paper's K ≤ 16, or late in a large transfer when only a few
// tags remain unlocked, the scan is a handful of float compares —
// cheaper than any tree walk — while the tree keeps per-flip selection
// O(touched·log K) when hundreds of tags are still being decoded. It
// is a variable only so tests can pin the scan against the tree.
var treeCutoverK = 64

// useTreeFor reports whether descents over nActive unlocked tags query
// the tournament tree.
func useTreeFor(nActive int) bool { return nActive > treeCutoverK }

// alloc sizes the state's buffers for g's tags and symbols from sc.
func (st *descentState) alloc(g *Graph, sc *scratch.Scratch) {
	k := g.K
	st.residual = dsp.Vec(sc.Complex(g.L))
	st.sum = sc.Complex(k)
	st.gain = sc.Float(k)
	st.bSign = sc.Float(k)
	st.maskTap = sc.Complex(k)
	st.allocTree(sc.Int(2 * scratch.CeilPow2(max(k, 1))))
	st.useTree = useTreeFor(len(g.activeTags))
	st.allocDirty(sc.Int(k), sc.Bool(k))
}

// allocTree installs the tournament-tree backing (length must be
// 2·CeilPow2(k)) and records the leaf offset.
func (st *descentState) allocTree(buf []int) {
	st.tree = buf
	st.leafBase = len(buf) / 2
}

// allocDirty installs the dirty-list backing (length k each; inDirty
// must be all-false).
func (st *descentState) allocDirty(dirty []int, inDirty []bool) {
	st.dirty = dirty
	st.inDirty = inDirty
}

// gainOf computes tag i's gain from the cached S_i — the hoisted-conj
// correlation kernel of the package comment, with the |h|²·w constant
// served from the graph's wPow cache and the flip direction from the
// state's sign table (branch-free on the candidate bit).
func (st *descentState) gainOf(g *Graph, i int) float64 {
	s := st.sum[i]
	corr := g.tapRe[i]*real(s) + g.tapIm[i]*imag(s)
	return 2*corr*st.bSign[i] - g.wPow[i]
}

// better reports whether candidate tag a beats b under the search's
// total order: higher gain first, ties broken toward the lower index —
// exactly the order the original first-strictly-greater scan produced.
func (st *descentState) better(a, b int) bool {
	if b < 0 {
		return true
	}
	if a < 0 {
		return false
	}
	ga, gb := st.gain[a], st.gain[b]
	if ga != gb {
		return ga > gb
	}
	return a < b
}

// treeFix re-plays the tournament on the path from leaf i to the root
// after gain[i] changed. The walk cannot stop early even when a node's
// winning index is unchanged: the winner's key (its gain) changed, so
// every ancestor's comparison must be re-evaluated.
func (st *descentState) treeFix(i int) {
	n := st.leafBase + i
	for n > 1 {
		p := n >> 1
		l, r := st.tree[2*p], st.tree[2*p+1]
		win := l
		if st.better(r, l) {
			win = r
		}
		st.tree[p] = win
		n = p
	}
}

// treeBuild populates the whole tree from the gain table. Only the
// graph's active tags get a leaf: a deactivated (locked) tag can never
// win, so its gain is never read.
func (st *descentState) treeBuild(g *Graph) {
	leaves := st.tree[st.leafBase:]
	for x := range leaves {
		leaves[x] = -1
	}
	for _, i := range g.activeTags {
		leaves[i] = i
	}
	for p := st.leafBase - 1; p >= 1; p-- {
		l, r := st.tree[2*p], st.tree[2*p+1]
		win := l
		if st.better(r, l) {
			win = r
		}
		st.tree[p] = win
	}
}

// build derives the full state — residual, S-sums, gains, tree — for
// candidate b against observation y. O(L + nnz + K).
func (st *descentState) build(g *Graph, y dsp.Vec, b bits.Vector, locked []bool) {
	g.residualInto(st.residual, y, b)
	st.rederive(g, b, locked)
}

// buildFromBase derives residual, S-sums, gains and tree for candidate
// b in ONE row-major sweep, starting from a base residual that already
// carries the locked tags' contributions (the Session's locked-base).
// Only the active (unlocked) adjacency is traversed, once: each row's
// residual entry is finished and immediately scattered into the S-sums
// of the row's active tags. This is the restart passes' builder — the
// column-major build + rederive pair costs two traversals and O(K·w̄)
// pointer chasing; this costs one.
//
// Callers must guarantee that the graph's deactivated set equals the
// locked set (the Session maintains exactly that invariant). Only the
// active tags' entries and the active rows are written: a locked tag's
// sum, sign and gain are never read again, and rows whose every
// collider is locked keep whatever the residual buffer holds (the
// caller accounts for their frozen energy separately — see
// normSqActive). Cost is O(active tags + active nnz), independent of K.
func (st *descentState) buildFromBase(g *Graph, base []complex128, b bits.Vector) {
	for _, i := range g.activeTags {
		if b[i] {
			st.bSign[i] = -1
			st.maskTap[i] = g.taps[i]
		} else {
			st.bSign[i] = 1
			st.maskTap[i] = 0
		}
		st.sum[i] = 0
	}
	if g.soft {
		// Weighted form: a stale row sees α_i·h_i of tag i and feeds
		// α_i·r into the tag's S-sum. The extra compare per entry is
		// paid only in soft mode; the classic path below stays
		// branch-free.
		for x, row := range g.activeRows {
			r := base[row]
			ra := g.flatTags[g.flatStart[x]:g.flatStart[x+1]]
			for _, i := range ra {
				if row < g.staleCut[i] {
					r -= complex(g.softAlpha[i], 0) * st.maskTap[i]
				} else {
					r -= st.maskTap[i]
				}
			}
			st.residual[row] = r
			for _, i := range ra {
				if row < g.staleCut[i] {
					st.sum[i] += complex(g.softAlpha[i], 0) * r
				} else {
					st.sum[i] += r
				}
			}
		}
	} else {
		for x, row := range g.activeRows {
			r := base[row]
			ra := g.flatTags[g.flatStart[x]:g.flatStart[x+1]]
			// Branch-free: subtracting a zero masked tap is an exact
			// no-op, and the candidate bits are random — a conditional
			// here mispredicts half the time.
			for _, i := range ra {
				r -= st.maskTap[i]
			}
			st.residual[row] = r
			for _, i := range ra {
				st.sum[i] += r
			}
		}
	}
	for _, i := range g.activeTags {
		st.gain[i] = st.gainOf(g, i)
	}
	if st.useTree {
		st.treeBuild(g)
	}
}

// normSqActive returns the squared norm of the residual restricted to
// the graph's active rows; adding the Session's frozen-row constant
// yields the full ‖r‖².
func (st *descentState) normSqActive(g *Graph) float64 {
	var s float64
	for _, row := range g.activeRows {
		x := st.residual[row]
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return s
}

// copyActiveFrom copies src's state into st, restricting the transfer
// to the graph's active rows and active tags (the only entries src's
// builder materialized; st's frozen entries stay valid).
func (st *descentState) copyActiveFrom(g *Graph, src *descentState) {
	st.residual = st.residual[:len(src.residual)]
	for _, row := range g.activeRows {
		st.residual[row] = src.residual[row]
	}
	for _, i := range g.activeTags {
		st.sum[i] = src.sum[i]
		st.gain[i] = src.gain[i]
		st.bSign[i] = src.bSign[i]
	}
	if src.useTree {
		copy(st.tree, src.tree)
	}
	st.leafBase = src.leafBase
	st.useTree = src.useTree
}

// rederive recomputes S-sums, gains and the tree from the state's
// current residual and the candidate bits — the taps-changed and
// copied-state entry points. It walks the graph's active tags only: a
// deactivated tag's entries are dead state (the Session pins its gain
// at −∞ when it locks), and every row an active tag touches is an
// active row, so the residual is read only where it is maintained.
func (st *descentState) rederive(g *Graph, b bits.Vector, locked []bool) {
	for _, i := range g.activeTags {
		if b[i] {
			st.bSign[i] = -1
		} else {
			st.bSign[i] = 1
		}
		if locked != nil && locked[i] {
			// A locked tag's sum is dead state: its gain is pinned at
			// −∞ and nothing ever reads S_i again.
			st.gain[i] = math.Inf(-1)
			continue
		}
		var s complex128
		if g.soft && g.staleCnt[i] > 0 {
			cut, a := g.staleCut[i], complex(g.softAlpha[i], 0)
			for _, row := range g.colRows[i] {
				if row < cut {
					s += a * st.residual[row]
				} else {
					s += st.residual[row]
				}
			}
		} else {
			for _, row := range g.colRows[i] {
				s += st.residual[row]
			}
		}
		st.sum[i] = s
		st.gain[i] = st.gainOf(g, i)
	}
	if st.useTree {
		st.treeBuild(g)
	}
}

// appendRow folds collision row `row` into the state in O(colliders):
// the new residual entry, the touched S-sums and gains. obs is the new
// symbol's observation. Rows must be appended in order.
func (st *descentState) appendRow(g *Graph, row int, obs complex128, b bits.Vector, locked []bool) {
	r := obs
	tags := g.rowCols[row]
	for _, i := range tags {
		if b[i] {
			r -= g.taps[i]
		}
	}
	st.residual = append(st.residual, r)
	for _, i := range g.rowActive[row] {
		if locked != nil && locked[i] {
			st.gain[i] = math.Inf(-1)
		} else {
			st.sum[i] += r
			st.gain[i] = st.gainOf(g, i)
		}
		if st.useTree {
			st.treeFix(i)
		}
	}
}

// applyFlip flips bit i in b and updates residual, S-sums and the gains
// of every touched tag: O(w_i · colliders) sum updates (one complex
// subtraction each — every touched residual entry moves by the same
// −δ·h_i), then one gain recompute and tree repair per unique neighbor
// via the dirty-list.
func (st *descentState) applyFlip(g *Graph, b bits.Vector, locked []bool, i int) {
	delta := g.taps[i]
	if b[i] {
		delta = -delta
	}
	b[i] = !b[i]
	st.bSign[i] = -st.bSign[i]
	nd := 0
	if g.soft {
		cut := g.staleCut[i]
		for _, row := range g.colRows[i] {
			d := delta
			if row < cut {
				d *= complex(g.softAlpha[i], 0)
			}
			st.residual[row] -= d
			for _, j := range g.rowActive[row] {
				if row < g.staleCut[j] {
					st.sum[j] -= complex(g.softAlpha[j], 0) * d
				} else {
					st.sum[j] -= d
				}
				if !st.inDirty[j] {
					st.inDirty[j] = true
					st.dirty[nd] = j
					nd++
				}
			}
		}
	} else {
		for _, row := range g.colRows[i] {
			st.residual[row] -= delta
			for _, j := range g.rowActive[row] {
				st.sum[j] -= delta
				if !st.inDirty[j] {
					st.inDirty[j] = true
					st.dirty[nd] = j
					nd++
				}
			}
		}
	}
	for _, j := range st.dirty[:nd] {
		st.inDirty[j] = false
		if locked != nil && locked[j] {
			continue
		}
		st.gain[j] = st.gainOf(g, j)
	}
	if !st.useTree {
		return
	}
	// Tree repair: per-leaf paths cost ~log K comparisons each, a full
	// rebuild K−1 — pick whichever is cheaper for this flip's fan-out.
	if nd*treeDepth(st.leafBase) >= st.leafBase {
		st.treeBuild(g)
	} else {
		for _, j := range st.dirty[:nd] {
			st.treeFix(j)
		}
	}
}

// treeDepth returns the leaf-to-root path length of a tournament tree
// with the given leaf count (a power of two).
func treeDepth(leaves int) int {
	d := 0
	for n := leaves; n > 1; n >>= 1 {
		d++
	}
	return d
}

// lockTag freezes tag i in the state: its gain drops to −∞ and its
// tree leaf empties, so the descent can never select it. The Session
// applies this between slots when the outer loop verifies a message.
func (st *descentState) lockTag(i int) {
	st.gain[i] = math.Inf(-1)
	if st.useTree {
		st.tree[st.leafBase+i] = -1
		st.treeFix(i)
	}
}

// descend runs the greedy flip loop to a local optimum, mutating b and
// the state in place; it returns the flip count. The state must be
// consistent with b on entry and remains so on exit.
func (st *descentState) descend(g *Graph, b bits.Vector, locked []bool, eps float64) int {
	flips := 0
	// Each accepted flip strictly reduces the squared error by at least
	// eps, and the error is bounded below by 0, so this terminates. The
	// hard cap is a belt-and-braces guard against pathological float
	// behaviour.
	maxFlips := 64 * (g.K + 1) * (g.L + 1)
	for flips < maxFlips {
		var best int
		if st.useTree {
			best = st.tree[1]
			if best < 0 || st.gain[best] <= eps {
				break
			}
		} else {
			// Scan of the active tags, ascending, with the same (gain
			// desc, index asc) order the tree serves — optimal below
			// the cutover. Locked tags (gain −∞) could never win.
			best = -1
			bestG := eps
			for _, i := range g.activeTags {
				if gv := st.gain[i]; gv > bestG {
					bestG = gv
					best = i
				}
			}
			if best < 0 {
				break
			}
		}
		st.applyFlip(g, b, locked, best)
		flips++
	}
	return flips
}

// Decode runs the bit-flipping search for one bit position. y must hold
// exactly L symbols. src drives the random initializations.
func (g *Graph) Decode(y dsp.Vec, opts Options, src *prng.Source) Result {
	if len(y) != g.L {
		panic(fmt.Sprintf("bp: observation length %d != L %d", len(y), g.L))
	}
	if opts.Locked != nil && len(opts.Locked) != g.K {
		panic(fmt.Sprintf("bp: Locked length %d != K %d", len(opts.Locked), g.K))
	}
	if opts.Init != nil && len(opts.Init) != g.K {
		panic(fmt.Sprintf("bp: Init length %d != K %d", len(opts.Init), g.K))
	}
	eps := opts.GainEps
	if eps == 0 {
		eps = 1e-12
	}
	sc := opts.Scratch

	// One contiguous block holds every pass's candidate so the
	// tie-detection sweep below can revisit all of them without keeping a
	// slice of Results around.
	passes := 1 + opts.Restarts
	allBits := sc.Bool(passes * g.K)
	passErr := sc.Float(passes)
	var st descentState
	stMark := sc.Mark()
	st.alloc(g, sc)
	totalFlips := 0
	bestPass := 0
	bestErr := math.Inf(1)
	for pass := 0; pass < passes; pass++ {
		bhat := bits.Vector(allBits[pass*g.K : (pass+1)*g.K])
		switch {
		case pass == 0 && opts.Init != nil:
			copy(bhat, opts.Init)
		default:
			bits.RandomInto(src, bhat)
			// Random restarts must still respect locks.
			if opts.Locked != nil && opts.Init != nil {
				for i, l := range opts.Locked {
					if l {
						bhat[i] = opts.Init[i]
					}
				}
			}
		}
		st.build(g, y, bhat, opts.Locked)
		totalFlips += st.descend(g, bhat, opts.Locked, eps)
		errV := st.residual.NormSq()
		passErr[pass] = errV
		if errV < bestErr {
			bestErr = errV
			bestPass = pass
		}
	}
	sc.Release(stMark)
	best := Result{
		Bits:      bits.Vector(allBits[bestPass*g.K : (bestPass+1)*g.K]),
		Error:     bestErr,
		Flips:     totalFlips,
		Ambiguous: sc.Bool(g.K),
	}
	// Tie detection: any alternative local optimum whose error is within
	// a tag's own collision energy of the best, yet disagrees on that
	// tag's bit, marks the tag ambiguous.
	markAmbiguous(g, allBits, passErr, bestPass, best.Bits, best.Ambiguous)
	return best
}

// markAmbiguous runs the cross-pass tie sweep of Result.Ambiguous over
// the contiguous per-pass candidate block.
func markAmbiguous(g *Graph, allBits []bool, passErr []float64, bestPass int, bestBits bits.Vector, out []bool) {
	g.markAmbiguousPruned(allBits, passErr, bestPass, bestBits, out, g.maxTieThreshold())
}

// maxTieThreshold returns the largest tie threshold among the active
// tags — the prune bound for the ambiguity sweep, which never marks a
// deactivated tag. The Session hoists it to once per slot.
func (g *Graph) maxTieThreshold() float64 {
	maxThresh := 0.0
	for _, i := range g.activeTags {
		if t := 0.15 * g.wPow[i]; t > maxThresh {
			maxThresh = t
		}
	}
	return maxThresh
}

// markAmbiguousPruned is markAmbiguous with the prune bound supplied: a
// pass whose error gap exceeds every tag's tie threshold cannot mark
// anything, so its bit sweep is skipped entirely (most restarts end far
// from the optimum, leaving only the interesting few), as is the best
// pass itself (its bits are bestBits — nothing can differ). The sweep
// visits the active tags only: a deactivated tag's bit is the same
// locked value in every pass, so it can never differ either, and only
// the active entries of allBits, bestBits and out are read or written.
func (g *Graph) markAmbiguousPruned(allBits []bool, passErr []float64, bestPass int, bestBits bits.Vector, out []bool, maxThresh float64) {
	bestErr := passErr[bestPass]
	for pass := 0; pass < len(passErr); pass++ {
		if pass == bestPass {
			continue
		}
		gap := passErr[pass] - bestErr
		if gap >= maxThresh {
			continue
		}
		alt := allBits[pass*g.K : (pass+1)*g.K]
		for _, i := range g.activeTags {
			if alt[i] != bool(bestBits[i]) && gap < 0.15*g.wPow[i] {
				out[i] = true
			}
		}
	}
}

// Margins returns, for each tag, the normalized flip margin of candidate
// b against observation y:
//
//	m_i = −G_i / (|h_i|²·w_i)
//
// where G_i is the flip gain (≤ 0 at a local optimum) and w_i tag i's
// participation count. A confidently decoded bit has m_i ≈ 1 — flipping
// it would add its full collision energy back as error — while a bit the
// observations barely constrain has m_i ≈ 0. Tags with w_i = 0 report 0:
// nothing has been observed about them at all.
//
// The rateless outer loop uses these margins as a CRC gate: a 5-bit
// checksum false-accepts 1 in 32 random frames, so the reader only
// checks frames whose every bit is strongly pinned (see
// ratedapt.Config.MarginThreshold).
func (g *Graph) Margins(y dsp.Vec, b bits.Vector) []float64 {
	return g.MarginsInto(make([]float64, g.K), y, b, nil)
}

// MarginsInto is Margins computed into out (which must have length K),
// with the residual drawn from sc; the allocation-free form callers on
// the hot path use. A nil sc falls back to plain allocation.
func (g *Graph) MarginsInto(out []float64, y dsp.Vec, b bits.Vector, sc *scratch.Scratch) []float64 {
	if len(b) != g.K || len(y) != g.L {
		panic("bp: Margins dimension mismatch")
	}
	if len(out) != g.K {
		panic(fmt.Sprintf("bp: MarginsInto out length %d != K %d", len(out), g.K))
	}
	mark := sc.Mark()
	residual := g.residualInto(dsp.Vec(sc.Complex(len(y))), y, b)
	for i := 0; i < g.K; i++ {
		out[i] = 0
		w := len(g.colRows[i])
		if w == 0 || g.tapPower[i] == 0 {
			continue
		}
		var s complex128
		den := g.tapPower[i] * float64(w)
		if g.soft && g.staleCnt[i] > 0 {
			// Weighted correlation and effective |h|²·w under soft
			// stale-row down-weighting — the same model the descent ran.
			cut, a := g.staleCut[i], complex(g.softAlpha[i], 0)
			for _, row := range g.colRows[i] {
				if row < cut {
					s += a * residual[row]
				} else {
					s += residual[row]
				}
			}
			den = g.tapPower[i] * g.effWeight(i)
			if den == 0 {
				continue
			}
		} else {
			for _, row := range g.colRows[i] {
				s += residual[row]
			}
		}
		corr := g.tapRe[i]*real(s) + g.tapIm[i]*imag(s)
		if b[i] {
			corr = -corr
		}
		gain := 2*corr - den
		out[i] = -gain / den
	}
	sc.Release(mark)
	return out
}

// marginOf converts a gain into the normalized flip margin; shared by
// MarginsInto's formula and the Session's cached-gain fast path.
func (g *Graph) marginOf(i int, gain float64) float64 {
	if g.wPow[i] == 0 {
		return 0
	}
	return -gain / g.wPow[i]
}

// ConditionalMargin measures how much worse the observations can be
// explained with tag i's bit forced to the opposite value: it flips bit
// i in candidate b, pins it, lets every other unlocked bit re-optimize,
// and returns
//
//	(err(best with bit i flipped) − err(b)) / (|h_i|²·w_i)
//
// The plain flip margin (Margins) only scores single-bit flips, so it is
// blind to constellation near-coincidences in which several tags' bits
// change together — the dominant false-decode mode when many tags
// collide in few slots. A conditional margin near zero says the flipped
// world explains the data almost as well: the bit is ambiguous no matter
// how confident the single-flip margin looks. Tags with no observations
// report 0.
func (g *Graph) ConditionalMargin(y dsp.Vec, b bits.Vector, i int, locked []bool, src *prng.Source) float64 {
	return g.ConditionalMarginScratch(y, b, i, locked, src, nil)
}

// ConditionalMarginScratch is ConditionalMargin with the working buffers
// — the flipped candidate, the pin mask, and the inner re-decode — drawn
// from sc. Nothing escapes: the arena is released before returning.
// Callers holding a Session should prefer Session.ConditionalMargin,
// which reuses the position's cached residual and error instead of
// rebuilding both.
func (g *Graph) ConditionalMarginScratch(y dsp.Vec, b bits.Vector, i int, locked []bool, src *prng.Source, sc *scratch.Scratch) float64 {
	if len(b) != g.K || len(y) != g.L {
		panic("bp: ConditionalMargin dimension mismatch")
	}
	w := len(g.colRows[i])
	den := g.tapPower[i] * float64(w)
	if g.soft {
		den = g.tapPower[i] * g.effWeight(i)
	}
	if w == 0 || den == 0 {
		return 0
	}
	mark := sc.Mark()
	defer sc.Release(mark)
	base := g.errorOf(y, b, sc)
	init := bits.Vector(sc.Bool(g.K))
	copy(init, b)
	init[i] = !init[i]
	pin := sc.Bool(g.K)
	if locked != nil {
		copy(pin, locked)
	}
	pin[i] = true
	res := g.Decode(y, Options{Init: init, Locked: pin, Scratch: sc}, src)
	return (res.Error - base) / den
}

// ErrorOf computes ‖D·H·b − y‖² for an arbitrary candidate without
// running a decode; tests and diagnostics use it.
func (g *Graph) ErrorOf(y dsp.Vec, b bits.Vector) float64 {
	return g.errorOf(y, b, nil)
}

func (g *Graph) errorOf(y dsp.Vec, b bits.Vector, sc *scratch.Scratch) float64 {
	if len(b) != g.K || len(y) != g.L {
		panic("bp: ErrorOf dimension mismatch")
	}
	mark := sc.Mark()
	errV := g.residualInto(dsp.Vec(sc.Complex(len(y))), y, b).NormSq()
	sc.Release(mark)
	return errV
}
