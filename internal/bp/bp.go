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
//   - The "flip the highest-gain bit" selection scans only the active
//     (unlocked) tags' gains, keeping the first strictly greater one, so
//     ties break toward the lower index. Late in a transfer, when most
//     tags are verified, a flip scans just the stragglers.
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
	// unlocked set, since a locked tag's bits, sums and gain never change
	// again. DeactivateTag removes, AddTag appends (a new tag has the
	// largest index). The per-position kernels walk the slot's decode set
	// (decodeTags) instead; the whole list feeds gramRule's Ka, the Gram
	// kernels, the restart bits (randomBitsInto), the adoption copy and
	// the rebuild (rederive).
	activeTags []int
	// decodeTags lists (ascending) the slot's decode set, the active tags
	// every per-position kernel and rank-indexed table walks, and
	// rowlessTags the active tags without live rows. SnapshotActive takes
	// the decode set as the active tags with live rows (decodeTags then
	// backs onto decodeBuf); a Gram slot, whose kernels rank the whole
	// active list, widens it to activeTags. A tag without live rows has
	// an S-sum, matched-filter output, couplings and |h|²·w of exactly
	// zero, so its gain is ±0: it never flips, never moves
	// another tag's sum, never blocks a certificate and is never marked
	// ambiguous. It still changes an output in three places, which walk
	// activeTags: gramRule's Ka, the restart bits and the adoption copy
	// (an adopted restart replaces its bits). Its per-position state stays
	// by value what a rebuild gives it (a zero S-sum, a zero gain and the
	// flip sign of its bit; see Session.clearRowState), so it joins the
	// decode set with a current state when it gains a row.
	decodeTags  []int
	rowlessTags []int
	decodeBuf   []int
	// activeRows lists (ascending) the rows whose rowActive is still
	// non-empty — the only rows a restart build or re-descent can ever
	// touch, and the only rows the Session scores. Rows whose every
	// collider has locked drop out: their residual entries are frozen,
	// so their energy is the same for every pass of a position and never
	// enters a comparison.
	activeRows []int
	// actDeg[i] counts tag i's live rows that are active. It changes
	// where a row activates or deactivates: AppendRow, DeactivateTag,
	// RetireRow and RetireTagRows. A locked tag with actDeg 0 lies on no
	// row any kernel reads (see Session.Quiescent).
	actDeg []int
	// flatTags/flatStart are a CSR snapshot of the active adjacency,
	// rebuilt by SnapshotActive once per slot: flatTags[flatStart[x] :
	// flatStart[x+1]] are the active tags of activeRows[x], packed
	// contiguously so the restart builder streams one array instead of
	// chasing per-row slice headers.
	flatTags  []int
	flatStart []int
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
	// taps[i] is tag i's channel coefficient h_i.
	taps []complex128
	// tapPower[i] caches |h_i|².
	tapPower []float64
	// tapRe and tapIm cache Re(h_i) and Im(h_i) — the hoisted conjugate
	// taps of the correlation kernels: Re(conj(h)·s) = Re(h)·Re(s) +
	// Im(h)·Im(s), two real multiplies instead of a complex one.
	tapRe, tapIm []float64
	// setTap[i] = {0, h_i} is tag i's term in a row's residual, indexed by
	// its bit: the sparse residual build (subtractOnActiveRows) and
	// appendRow select it without a branch, and subtracting the +0 of a
	// clear bit is exact.
	setTap [][2]complex128
	// wPow[i] caches |h_i|²·w_i — the gain formula's constant term,
	// updated as rows append so gainOf is pure arithmetic on loads.
	wPow []float64
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
	if cap(g.deactivated) < k {
		g.deactivated = make([]bool, k, scratch.CeilPow2(k))
	}
	g.deactivated = g.deactivated[:k]
	clear(g.deactivated)
	g.actDeg = grow(g.actDeg, k)
	clear(g.actDeg)
	g.activeTags = reserveCap(g.activeTags[:0], k)
	for i := 0; i < k; i++ {
		g.activeTags = append(g.activeTags, i)
	}
	g.K = k
	g.L = 0
	g.retired = 0
	g.SetTaps(taps)
}

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
	g.setTap = g.setTap[:0]
	for _, h := range taps {
		re, im := real(h), imag(h)
		g.tapPower = append(g.tapPower, re*re+im*im)
		g.tapRe = append(g.tapRe, re)
		g.tapIm = append(g.tapIm, im)
		g.setTap = append(g.setTap, [2]complex128{0, h})
	}
	g.wPow = g.wPow[:0]
	for i := range taps {
		g.wPow = append(g.wPow, g.tapPower[i]*float64(len(g.colRows[i])))
	}
}

// RetapTag installs a new tap for tag i, updating the derived caches
// (|h|², hoisted conjugate parts, |h|²·w) in O(1). Cached descent
// state derived under the old tap is stale afterwards: Session.RetapTags
// invalidates it, and the next DecodeSlot rebuilds.
func (g *Graph) RetapTag(i int, h complex128) {
	re, im := real(h), imag(h)
	g.taps[i] = h
	g.tapPower[i] = re*re + im*im
	g.tapRe[i], g.tapIm[i] = re, im
	g.setTap[i][1] = h
	g.wPow[i] = g.tapPower[i] * float64(len(g.colRows[i]))
}

// ReserveTags grows the per-tag buffers' capacity for up to kCap tags
// without changing K, so mid-transfer AddTags up to the cap allocate
// nothing — the admission-time sizing behind Session.Reserve.
func (g *Graph) ReserveTags(kCap int) {
	if kCap <= cap(g.colRows) && kCap <= cap(g.deactivated) &&
		kCap <= cap(g.taps) && kCap <= cap(g.activeTags) {
		return
	}
	g.colRows = reserveCap(g.colRows, kCap)
	g.deactivated = reserveCap(g.deactivated, kCap)
	g.actDeg = reserveCap(g.actDeg, kCap)
	g.activeTags = reserveCap(g.activeTags, kCap)
	g.taps = reserveCap(g.taps, kCap)
	g.tapPower = reserveCap(g.tapPower, kCap)
	g.tapRe = reserveCap(g.tapRe, kCap)
	g.tapIm = reserveCap(g.tapIm, kCap)
	g.setTap = reserveCap(g.setTap, kCap)
	g.wPow = reserveCap(g.wPow, kCap)
}

// grow resizes a session-owned buffer to length n, reusing capacity
// with power-of-two headroom. Contents are not preserved; callers
// re-derive them.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, scratch.CeilPow2(n))
	}
	return buf[:n]
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
	g.actDeg = append(g.actDeg, 0)
	g.activeTags = append(g.activeTags, k)
	re, im := real(h), imag(h)
	g.taps = append(g.taps, h)
	g.tapPower = append(g.tapPower, re*re+im*im)
	g.tapRe = append(g.tapRe, re)
	g.tapIm = append(g.tapIm, im)
	g.setTap = append(g.setTap, [2]complex128{0, h})
	g.wPow = append(g.wPow, 0)
	g.K = k + 1
}

// AppendRow grows the graph by one collision row whose colliders are
// cols, ascending tag indices below K. Cost is O(colliders); storage is
// reused across Reset cycles.
func (g *Graph) AppendRow(cols []int) {
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
	for _, i := range cols {
		if i < 0 || i >= g.K || (len(rc) > 0 && i <= rc[len(rc)-1]) {
			panic(fmt.Sprintf("bp: AppendRow collider %d not ascending in [0, %d)", i, g.K))
		}
		rc = append(rc, i)
		g.colRows[i] = append(g.colRows[i], r)
		g.wPow[i] += g.tapPower[i]
		if !g.deactivated[i] {
			ra = append(ra, i)
		}
	}
	g.rowCols[r] = rc
	g.rowActive[r] = ra
	if len(ra) > 0 {
		g.activeRows = append(g.activeRows, r)
		g.countActive(rc, 1)
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
		if len(cr) == 1 {
			// Snap to exact zero: |h|²·w must vanish with the degree,
			// and the incremental subtractions leave float dust that
			// would poison the margin normalization −G/(|h|²·w).
			g.wPow[i] = 0
		} else {
			g.wPow[i] -= g.tapPower[i]
		}
	}
	if len(g.rowActive[r]) > 0 {
		g.countActive(g.rowCols[r], -1)
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
// when a row's last active collider leaves. A row emptied of active
// tags drops out of activeRows, exactly as under DeactivateTag. Returns
// the number of rows the tag was removed from.
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
		if len(g.rowActive[r]) > 0 {
			g.actDeg[i]--
		}
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
				emptied = true
				g.countActive(g.rowCols[r], -1)
			}
		}
	}
	copy(cr, cr[n:])
	g.colRows[i] = cr[:len(cr)-n]
	// Re-derived, not decremented: at degree 0 this snaps to the exact
	// zero the margin normalization divides by, as in RetireRow.
	g.wPow[i] = g.tapPower[i] * float64(len(g.colRows[i]))
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
	// Row indices never reach n (AppendColliders enforces the budget), so
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
}

// Retired returns the number of retired prefix rows; the live graph is
// the window [Retired(), L).
func (g *Graph) Retired() int { return g.retired }

// DeactivateTag drops tag i from every row's flip fan-out and from the
// active tag list: callers do this when the outer loop CRC-locks the
// tag, whose sums and gains are dead state from then on. Rows left with
// no active tags are pruned from activeRows. O(w_i · colliders +
// active), once per locked tag.
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
			emptied = true
			g.countActive(g.rowCols[row], -1)
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

// SnapshotActive packs the active adjacency into the flat CSR the
// restart builder streams and splits the active tags into the decode
// set and the rowless rest (decodeTags, rowlessTags). The Session calls
// it once per slot, after the graph grew and locks folded in; it is
// O(active nnz + active tags).
func (g *Graph) SnapshotActive() {
	g.flatStart = g.flatStart[:0]
	g.flatTags = g.flatTags[:0]
	for _, row := range g.activeRows {
		g.flatStart = append(g.flatStart, len(g.flatTags))
		g.flatTags = append(g.flatTags, g.rowActive[row]...)
	}
	g.flatStart = append(g.flatStart, len(g.flatTags))
	dec, rowless := g.decodeBuf[:0], g.rowlessTags[:0]
	for _, i := range g.activeTags {
		if len(g.colRows[i]) > 0 {
			dec = append(dec, i)
		} else {
			rowless = append(rowless, i)
		}
	}
	g.decodeBuf, g.decodeTags, g.rowlessTags = dec, dec, rowless
}

// Degree returns the participation count of tag i.
func (g *Graph) Degree(i int) int { return len(g.colRows[i]) }

// countActive adds d to the active-row count of every tag in cols: a
// row with colliders cols activated (d = 1) or deactivated (d = −1).
func (g *Graph) countActive(cols []int, d int) {
	for _, i := range cols {
		g.actDeg[i] += d
	}
}

// residualInto computes r = y − D·H·b into dst (length L) over the
// live rows [retired, L) and returns dst — the column-major residual
// build the Session's rebuild uses when most live rows are still
// active. The retired prefix of dst is left as it was: no reader looks
// at a retired row's residual.
func (g *Graph) residualInto(dst dsp.Vec, y dsp.Vec, b bits.Vector) dsp.Vec {
	copy(dst[g.retired:], y[g.retired:])
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

// subtractOnActiveRows sets dst[row] = y[row] − Σ_{i ∈ row, b[i]} h_i
// on every active row, subtracting in ascending tag order — the sparse
// shape's row-major residual build. Each collider's term is setTap[i]
// selected by its bit, so a clear bit subtracts an exact +0 and the loop
// carries no branch on the bits.
func (g *Graph) subtractOnActiveRows(dst, y []complex128, b bits.Vector) {
	for _, row := range g.activeRows {
		x := y[row]
		for _, i := range g.rowCols[row] {
			x -= g.setTap[i][bits.Index(b[i])]
		}
		dst[row] = x
	}
}

// descentState is the incremental working set of one bit-flipping search:
// the residual, the per-tag residual row-sums S_i and the gain table
// derived from them. Session persists one of these per bit position
// across collision slots, and keeps one more as its restart workspace.
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
	// maskTap[i] is the signed tap change ±h_i of an active tag whose
	// bit the restart changes, a zero elsewhere — the restart builder's
	// branchless row kernel (subtracting a zero is exact).
	maskTap []complex128
	// dirty and inDirty are the flip loop's dirty-list: a flip touches
	// each neighbor once per shared row, but its gain is recomputed once
	// per unique neighbor after the sums settle.
	dirty   []int
	inDirty []bool
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

// buildFrom derives residual, S-sums and gains for candidate b in ONE
// row-major sweep, starting from cur, a state consistent with curBits.
// A restart changes only active tags' bits, so each active row's
// residual is cur's minus the changed bits' taps: maskTap[i] is +h_i
// where b sets a bit curBits clears, −h_i where it clears one curBits
// sets, and 0 elsewhere. Each row's entry is finished and immediately
// scattered into the S-sums of the row's active tags. It starts every
// restart pass on the row path.
//
// Callers must guarantee that the graph's deactivated set equals the
// locked set (the Session maintains exactly that invariant), that b and
// curBits agree on every locked tag, and that st is not cur. Only the
// decode set's entries and the active rows are written: a locked tag's
// sum, sign and gain are never read again, a rowless tag's are never
// read by the descent (its gain is ±0), and rows whose every collider
// is locked keep whatever the residual buffer holds (no pass scores
// them — see normSqActive). Cost is O(decode set + active nnz),
// independent of K.
func (st *descentState) buildFrom(g *Graph, cur *descentState, curBits, b bits.Vector) {
	for _, i := range g.decodeTags {
		// d = b[i] − curBits[i] ∈ {−1, 0, +1} from integer selects, so
		// the random candidate bits cost no branch; d·h is exactly ±h_i
		// or a zero.
		bi := bits.Index(b[i])
		d, h := float64(bi-bits.Index(curBits[i])), g.taps[i]
		st.maskTap[i] = complex(d*real(h), d*imag(h))
		st.bSign[i] = float64(1 - 2*bi)
		st.sum[i] = 0
	}
	for x, row := range g.activeRows {
		r := cur.residual[row]
		ra := g.flatTags[g.flatStart[x]:g.flatStart[x+1]]
		// Branch-free: subtracting a zero masked tap is an exact no-op,
		// and the candidate bits are random — a conditional here
		// mispredicts half the time.
		for _, i := range ra {
			r -= st.maskTap[i]
		}
		st.residual[row] = r
		for _, i := range ra {
			st.sum[i] += r
		}
	}
	for _, i := range g.decodeTags {
		st.gain[i] = st.gainOf(g, i)
	}
}

// normSqActive returns the squared norm of the residual restricted to
// the graph's active rows — the score of every pass. The rows it skips
// have only locked colliders, so their energy is one constant per
// position: the same for every pass, it cancels from every comparison
// the Session makes (adoption, ambiguity gaps, conditional margins).
func (st *descentState) normSqActive(g *Graph) float64 {
	return sqNormOn(st.residual, g.activeRows)
}

// sqNormOn returns Σ|v[row]|² over rows, summed in the order given.
func sqNormOn(v []complex128, rows []int) float64 {
	var s float64
	for _, row := range rows {
		x := v[row]
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return s
}

// copyActiveFrom copies src's state into st, restricting the transfer
// to the graph's active rows and decode set (the only entries src's
// builder materialized; st's frozen entries stay valid, and a rowless
// tag's are the caller's to reset when its bit changes).
func (st *descentState) copyActiveFrom(g *Graph, src *descentState) {
	st.residual = st.residual[:len(src.residual)]
	for _, row := range g.activeRows {
		st.residual[row] = src.residual[row]
	}
	for _, i := range g.decodeTags {
		st.sum[i] = src.sum[i]
		st.gain[i] = src.gain[i]
		st.bSign[i] = src.bSign[i]
	}
}

// rederive recomputes S-sums and gains from the state's current
// residual and the candidate bits — the rebuild's second half. It walks
// the graph's active tags only: a deactivated tag's entries are dead
// state (the Session pins its gain at −∞ when it locks), and every row
// an active tag touches is an active row, so the residual is read only
// where it is maintained. Unlike the descent kernels it walks the
// rowless tags too: the rebuild is where their state is re-derived
// (their row loop is empty), exactly as resetRowless writes it.
func (st *descentState) rederive(g *Graph, b bits.Vector, locked []bool) {
	for _, i := range g.activeTags {
		st.bSign[i] = float64(1 - 2*bits.Index(b[i]))
		if locked != nil && locked[i] {
			// A locked tag's sum is dead state: its gain is pinned at
			// −∞ and nothing ever reads S_i again.
			st.gain[i] = math.Inf(-1)
			continue
		}
		var s complex128
		for _, row := range g.colRows[i] {
			s += st.residual[row]
		}
		st.sum[i] = s
		st.gain[i] = st.gainOf(g, i)
	}
}

// resetRowless sets every rowless tag's entries to the state a rebuild
// gives it at bits b (see rederive): a zero S-sum, the flip sign of its
// bit and the gain gainOf derives from them, ±0 since |h|²·w is zero
// (on a Gram slot, bitwise the gain gramInstall wrote). The restart
// kernels walk the decode set only, so the decode calls it where a
// rowless tag's bit changes: on adopting a restart.
func (st *descentState) resetRowless(g *Graph, b bits.Vector) {
	for _, i := range g.rowlessTags {
		st.bSign[i] = float64(1 - 2*bits.Index(b[i]))
		st.sum[i] = 0
		st.gain[i] = st.gainOf(g, i)
	}
}

// appendRow folds collision row `row` into the state in O(colliders):
// the new residual entry, the touched S-sums and gains. obs is the new
// symbol's observation. Rows must be appended in order. Each collider's
// term is setTap[i] selected by its bit, as in subtractOnActiveRows: a
// clear bit subtracts an exact +0.
func (st *descentState) appendRow(g *Graph, row int, obs complex128, b bits.Vector, locked []bool) {
	r := obs
	for _, i := range g.rowCols[row] {
		r -= g.setTap[i][bits.Index(b[i])]
	}
	st.residual = append(st.residual, r)
	for _, i := range g.rowActive[row] {
		if locked != nil && locked[i] {
			st.gain[i] = math.Inf(-1)
		} else {
			st.sum[i] += r
			st.gain[i] = st.gainOf(g, i)
		}
	}
}

// applyFlip flips bit i in b and updates residual, S-sums and the gains
// of every touched tag: O(w_i · colliders) sum updates (one complex
// subtraction each — every touched residual entry moves by the same
// −δ·h_i), then one gain recompute per unique neighbor via the
// dirty-list: a neighbor sharing several rows with tag i has its sum
// moved once per shared row but its gain recomputed once.
func (st *descentState) applyFlip(g *Graph, b bits.Vector, locked []bool, i int) {
	delta := g.taps[i]
	if b[i] {
		delta = -delta
	}
	b[i] = !b[i]
	st.bSign[i] = -st.bSign[i]
	nd := 0
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
	for _, j := range st.dirty[:nd] {
		st.inDirty[j] = false
		if locked != nil && locked[j] {
			continue
		}
		st.gain[j] = st.gainOf(g, j)
	}
}

// lockTag freezes tag i in the state: its gain drops to −∞, so the
// descent can never select it. The Session applies this between slots
// when the outer loop verifies a message.
func (st *descentState) lockTag(i int) { st.gain[i] = math.Inf(-1) }

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
		// Scan the decode set in ascending order, keeping the first
		// strictly greater gain: the highest gain wins, ties go to the
		// lower index. Locked tags (gain −∞) and rowless ones (gain ±0,
		// below eps) could never win.
		best, bestG := -1, eps
		for _, i := range g.decodeTags {
			if gv := st.gain[i]; gv > bestG {
				bestG = gv
				best = i
			}
		}
		if best < 0 {
			break
		}
		st.applyFlip(g, b, locked, best)
		flips++
	}
	return flips
}

// markAmbiguousPruned runs the cross-pass tie sweep behind DecodeSlot's
// anyAmbiguous: tag i is marked when a pass ending within its tie
// threshold 0.15·|h_i|²·w_i of the best error disagrees with the best
// pass on bit i. tie holds the thresholds by decode-set rank (the
// Session's certTie, staged once per slot) and maxTie the largest of
// them, the prune bound: a pass whose error gap exceeds every tag's tie
// threshold cannot mark anything, so its bit sweep is skipped entirely
// (most restarts end far from the optimum, leaving only the interesting
// few), as is the best pass itself (its bits are bestBits — nothing can
// differ). The sweep visits the decode set only: a deactivated tag's
// bit is the same locked value in every pass, so it can never differ
// either, and a rowless tag's threshold is 0, below every gap; only the
// decode set's entries of allBits, bestBits and out are read or written.
func (g *Graph) markAmbiguousPruned(allBits []bool, passErr []float64, bestPass int, bestBits bits.Vector, out []bool, tie []float64, maxTie float64) {
	bestErr := passErr[bestPass]
	for pass := 0; pass < len(passErr); pass++ {
		if pass == bestPass {
			continue
		}
		gap := passErr[pass] - bestErr
		if gap >= maxTie {
			continue
		}
		alt := allBits[pass*g.K : (pass+1)*g.K]
		for x, i := range g.decodeTags {
			if alt[i] != bool(bestBits[i]) && gap < tie[x] {
				out[i] = true
			}
		}
	}
}

// marginOf converts tag i's flip gain into its normalized flip margin
//
//	m_i = −G_i / (|h_i|²·w_i)
//
// where w_i is the tag's participation count. A confidently
// decoded bit has m_i ≈ 1 — flipping it would add its full collision
// energy back as error — while a bit the observations barely constrain
// has m_i ≈ 0. Tags with w_i = 0 report 0: nothing has been observed
// about them at all. DecodeSlot serves the minimum over positions as its
// minMargin output, which the rateless outer loop uses as a CRC gate (see
// ratedapt.Config.MarginThreshold).
func (g *Graph) marginOf(i int, gain float64) float64 {
	if g.wPow[i] == 0 {
		return 0
	}
	return -gain / g.wPow[i]
}
