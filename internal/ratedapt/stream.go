package ratedapt

import (
	"fmt"
	"slices"

	"repro/internal/bits"
	"repro/internal/bp"
	"repro/internal/prng"
	"repro/internal/scratch"
)

// Stream is the decode core of the data phase: the reader side of one
// rateless round, driven one collision slot at a time by an external
// owner. Every in-process transfer (Transfer, TransferEstimated,
// TransferSampled, TransferDynamic) is one driver — runRound walks a
// roster (RosterWalk) and synthesizes the air in-process; the engine
// package's SessionManager is the other (slots arrive over buzzd's wire
// protocol from a live reader, or from the replay client, which walks
// the same RosterWalk). Everything on this type is
// reader-reconstructible state — seeds, taps, estimates, gates — never
// the true payloads: a Stream decodes what the air delivers, exactly as
// a physical reader would.
//
// The slot cycle is two-phase so every driver shares one code path
// without double-deriving the participation row:
//
//	row, _ := st.Advance(ev)   // population events + row for this slot
//	obs := ...                 // air: synthesized (sim) or received (buzzd)
//	step, _ := st.Ingest(obs)  // append, decode, gates, window slide
//
// Determinism: a Stream draws randomness only from the DecodeSrc handed
// to OpenStream — k0 initial estimates, then one Uint64 for the
// per-(slot, position) decode base — and from the addressable arrival
// streams derived from that base. Two Streams opened with equal configs
// and fed equal events and observations produce byte-identical
// decisions; the engine-conformance goldens pin
// TransferDynamic against a wire-driven replay on exactly this
// property.
type Stream struct {
	cfg      Config // gate/CRC/density parameters (acceptSlot reads these)
	sess     *bp.Session
	ownSess  bool
	sc       *scratch.Scratch
	openMark scratch.Mark
	slotMark scratch.Mark
	inSlot   bool
	closed   bool

	frameLen    int
	maxSlots    int
	decodeBase  uint64
	arrivalBase uint64

	win        int
	wins       []int // per-tag windows over joined tags; nil = global/classic
	confirmWin int

	// Per-tag state in join order; all grow together on arrival. The
	// acceptance gates' share is the embedded gateState.
	gateState
	seeds          []uint64
	verified       []bool
	departed       []bool
	retired        []bool
	participation  []int
	rowsRetiredTag []int

	tapStage []complex128
	accepted []int

	// The slot cycle walks these lists of join-order indices, never the
	// joined roster. present (ascending) holds the joined tags not
	// departed, the only ones Advance draws; cols (ascending) the slot's
	// colliders; live (ascending) the joined tags not quiescent, the only
	// taps a retap installs; parting the departed tags not yet
	// quiescent, which FinishIngest checks; and quiesced the tags the
	// last FinishIngest found quiescent (NewlyQuiescent).
	present, cols, live, parting, quiesced []int
	// noQuiesce makes the stream find no tag quiescent, so every retap
	// installs every joined tag's tap and nothing is reported to freeze.
	// Only tests set it: the unfrozen side of the freeze twin.
	noQuiesce bool

	// margin and ambiguous are the decode's per-tag outputs, kept for
	// the stream's life and extended as tags join.
	margin    []float64
	ambiguous []bool

	// Decision-directed channel refinement (Config.RefineChannel):
	// d materializes the participation matrix for the least-squares fit
	// and taps holds the decoder's current estimates; d is nil when off.
	d    *bits.Matrix
	taps []complex128

	row           bits.Vector
	staged        bool
	slot          int
	nJ            int
	nDeparted     int
	nResolved     int
	totalAccepted int
	rowsRetired   int
	density       float64
	popChanged    bool
}

// StreamArrival is one tag joining a live stream: its participation
// seed, the decoder tap for its channel at the arrival slot, and — under
// a per-tag window policy — its resolved coherence window (0 = never
// windows; see WindowPolicy and ResolveTagWindows).
type StreamArrival struct {
	Seed   uint64
	Tap    complex128
	Window int
}

// SlotEvents carries one slot's population and channel events, applied
// by Advance before the slot's participation row is drawn — the same
// order TransferDynamic always used (arrivals, then departures, then
// the density re-tune, then the drift retap).
type SlotEvents struct {
	// Arrivals join the decode at this slot, in roster order. Their
	// initial estimates come from the stream's addressable arrival PRNG,
	// not from the wire.
	Arrivals []StreamArrival
	// Departs lists join-order indices of tags whose radios are gone
	// from this slot on. RosterWalk lists each departure once, at the
	// slot it fires; already-departed indices are ignored, so a driver
	// that re-reports departures stays correct.
	Departs []int
	// Retap, when non-nil, supplies this slot's decoder taps for every
	// joined tag (post-arrival count): the channel-drift fold-in
	// (bp.Session.RetapTags). The taps of tags the stream has found
	// quiescent (NewlyQuiescent) are not read. Nil means the taps have
	// not moved.
	Retap []complex128
}

// StepResult is one slot's decode outcome.
type StepResult struct {
	// Slot is the 1-based slot just ingested.
	Slot int
	// Colliders is how many tags transmitted in the slot.
	Colliders int
	// NewlyAccepted is how many frames passed the acceptance gates this
	// slot; the indices are in Stream.Accepted.
	NewlyAccepted int
	// TotalAccepted is the cumulative accepted count.
	TotalAccepted int
	// RowsRetired counts collision rows the coherence window(s) aged out
	// of the graph after this slot's decode.
	RowsRetired int
	// Done reports that every joined tag is resolved — verified or
	// retired by departure. The driver decides whether more tags are
	// still to come.
	Done bool
}

// StreamConfig parameterizes OpenStream. The coherence windows arrive
// pre-resolved (WindowPolicy.Resolve): a stream has no channel process
// to consult — over the wire the client owns the channel model,
// in-process runRound resolves against the decoder process, and both
// call the same Resolve — so resolution happens exactly once,
// driver-side.
type StreamConfig struct {
	// SessionSalt, CRC, Density, Restarts and MarginThreshold mean
	// exactly what they mean on Config; Density is
	// the explicit override (0 = derive from the live population,
	// re-tuned as it churns).
	SessionSalt     uint64
	CRC             bits.CRCKind
	Density         float64
	Restarts        int
	MarginThreshold float64
	// Parallelism is the removed per-slot position fan-out's width,
	// kept so existing callers compile: a session decodes its positions
	// in order on the caller's goroutine, and OpenStream rejects any
	// value other than 0 or 1.
	Parallelism int

	// MessageBits is the payload length; the frame length adds the CRC
	// width. All tags in a session share one frame length (§6).
	MessageBits int
	// MaxSlots bounds the round; Advance refuses to start slot
	// MaxSlots+1. Required (a daemon cannot default it from a roster it
	// never sees).
	MaxSlots int

	// WindowSlots is the resolved global coherence window (0 = none).
	// Windows at or beyond MaxSlots clamp to none, as in
	// WindowPolicy.EffectiveSlots.
	WindowSlots int
	// WindowTag, when non-nil, arms the per-tag window policy with the
	// initial tags' resolved windows (len == len(Seeds), 0 entries =
	// never windows; non-nil even if all zero keeps per-tag gating on —
	// arrivals may window). Arrivals carry their own windows. A stream
	// runs one window mode: OpenStream rejects a non-nil WindowTag with
	// a positive WindowSlots (a PerTag policy resolves to no global
	// window).
	WindowTag []int
	// WindowSoft is the removed soft per-tag down-weighting mode's
	// flag, kept so callers that pass a spec's flag keep compiling:
	// OpenStream rejects true.
	WindowSoft bool
	// ConfirmWindow is the double-confirmation distance for
	// never-windowed tags under a per-tag policy: the roster's largest
	// finite window (see gatePolicy.winTag). The driver computes it over
	// the full roster — including tags that have not arrived yet — so
	// the gates cannot shift when they do. 0 defaults to the max over
	// WindowTag.
	ConfirmWindow int

	// Seeds and Taps describe the tags present at slot 1 (len equal,
	// ≥ 1).
	Seeds []uint64
	Taps  []complex128
	// RosterCap, when positive, pre-sizes per-tag state for expected
	// arrivals so joining does not reallocate.
	RosterCap int

	// DecodeSrc seeds the initial estimates and the decode base; drawn
	// from only at open. A wire client transmits the fork seed
	// (prng.Mix2 of its setup stream) and both sides construct identical
	// sources.
	DecodeSrc *prng.Source

	// Scratch and Session follow Config: nil Scratch degrades to the
	// heap, nil Session borrows from the process pool until Close.
	Scratch *scratch.Scratch
	Session *bp.Session

	// silenceDecoded and refineChannel carry the Config features of the
	// same name from the in-process transfers (runRound); wire sessions
	// never set them. Silencing drops verified tags from every later
	// participation row without re-tuning the density. Refinement re-fits
	// the taps after each slot's append and before its decode; it needs a
	// fixed population on a frozen channel, so Advance rejects arrivals
	// and retaps while it is on.
	silenceDecoded bool
	refineChannel  bool
}

// OpenStream begins a streaming decode session: Begin on the session,
// window/drift arming, initial estimates, decode base. The caller must
// Close the stream to release the scratch scope and any pooled session.
func OpenStream(cfg StreamConfig) (*Stream, error) {
	k0 := len(cfg.Seeds)
	if k0 == 0 {
		return nil, fmt.Errorf("ratedapt: OpenStream needs at least one initial tag")
	}
	if len(cfg.Taps) != k0 {
		return nil, fmt.Errorf("ratedapt: OpenStream got %d seeds but %d taps", k0, len(cfg.Taps))
	}
	if cfg.MessageBits <= 0 {
		return nil, fmt.Errorf("ratedapt: OpenStream needs MessageBits > 0")
	}
	if cfg.MaxSlots <= 0 {
		return nil, fmt.Errorf("ratedapt: OpenStream needs MaxSlots > 0")
	}
	if cfg.WindowTag != nil && len(cfg.WindowTag) != k0 {
		return nil, fmt.Errorf("ratedapt: WindowTag has %d entries for %d tags", len(cfg.WindowTag), k0)
	}
	if cfg.WindowTag != nil && cfg.WindowSlots > 0 {
		return nil, fmt.Errorf("ratedapt: WindowSlots %d with a per-tag WindowTag: a stream runs either a global or a per-tag window, not both", cfg.WindowSlots)
	}
	if cfg.DecodeSrc == nil {
		return nil, fmt.Errorf("ratedapt: OpenStream needs a DecodeSrc")
	}
	if cfg.WindowSoft {
		return nil, fmt.Errorf("ratedapt: WindowSoft was removed; per-tag windows always retire stale rows")
	}
	if cfg.Parallelism != 0 && cfg.Parallelism != 1 {
		return nil, fmt.Errorf("ratedapt: Parallelism %d: the position fan-out was removed; positions decode serially (0 or 1)", cfg.Parallelism)
	}

	cap0 := max(cfg.RosterCap, k0)
	st := &Stream{
		cfg: Config{
			SessionSalt:     cfg.SessionSalt,
			CRC:             cfg.CRC,
			Density:         cfg.Density,
			Restarts:        cfg.Restarts,
			MarginThreshold: cfg.MarginThreshold,
			SilenceDecoded:  cfg.silenceDecoded,
		},
		sc:       cfg.Scratch,
		frameLen: cfg.MessageBits + cfg.CRC.Width(),
		maxSlots: cfg.MaxSlots,
		nJ:       k0,
		density:  participationDensity(cfg.Density, k0),

		gateState: gateState{
			estimates:    make([]bits.Vector, k0, cap0),
			locked:       make([]bool, k0, cap0),
			decodedAt:    make([]int, k0, cap0),
			candidates:   make([]*pendingFrame, k0, cap0),
			frameChanged: make([]bool, k0, cap0),
			frameOK:      make([]bool, k0, cap0),
			crcValid:     make([]bool, k0, cap0),
			frames:       make([]bits.Vector, k0, cap0),
		},
		seeds:          append(make([]uint64, 0, cap0), cfg.Seeds...),
		verified:       make([]bool, k0, cap0),
		departed:       make([]bool, k0, cap0),
		retired:        make([]bool, k0, cap0),
		participation:  make([]int, k0, cap0),
		rowsRetiredTag: make([]int, k0, cap0),
	}
	st.sess = cfg.Session
	if st.sess == nil {
		st.sess = bp.GetSession()
		st.ownSess = true
	}
	st.openMark = st.sc.Mark()
	// The slot cycle's lists and the decode outputs live in the stream's
	// scratch scope, sized for the roster cap.
	st.present, st.live = st.sc.Int(cap0)[:k0], st.sc.Int(cap0)[:k0]
	for i := range k0 {
		st.present[i], st.live[i] = i, i
	}
	st.cols, st.parting, st.quiesced = st.sc.Int(cap0)[:0], st.sc.Int(cap0)[:0], st.sc.Int(cap0)[:0]
	st.margin, st.ambiguous = st.sc.Float(cap0)[:k0], st.sc.Bool(cap0)[:k0]

	if cap0 > k0 {
		// Size the session for the roster cap at admission, not lazily on
		// the first arrival: a mid-round Grow inside the cap then touches
		// no allocator, keeping the warm per-slot path 0 allocs/op.
		st.sess.Reserve(cap0, st.frameLen, st.maxSlots, cfg.Restarts)
	}
	st.sess.Begin(k0, st.frameLen, st.maxSlots, cfg.Restarts, cfg.Taps)
	// Windows arrive resolved; only the budget clamp is re-applied here
	// (a window the round can never outgrow is no window — see
	// WindowPolicy.EffectiveSlots), so a mis-sized wire value degrades
	// identically on both sides instead of desynchronizing the gates.
	st.win = cfg.WindowSlots
	if st.win >= st.maxSlots {
		st.win = 0
	}
	st.sess.TrackDrift(st.win > 0)
	if cfg.WindowTag != nil {
		st.wins = make([]int, 0, cap0)
		for _, w := range cfg.WindowTag {
			st.wins = append(st.wins, st.clampTagWindow(w))
		}
		st.confirmWin = cfg.ConfirmWindow
		if st.confirmWin == 0 {
			for _, w := range st.wins {
				st.confirmWin = max(st.confirmWin, w)
			}
		}
	}
	st.sess.TrackTagDrift(st.wins != nil)

	for i := 0; i < k0; i++ {
		st.estimates[i] = bits.Vector(st.sc.Bool(st.frameLen))
		bits.RandomInto(cfg.DecodeSrc, st.estimates[i])
	}
	st.sess.InitPositions(st.estimates[:k0])
	st.decodeBase = cfg.DecodeSrc.Uint64()
	if cfg.refineChannel {
		st.d = bits.NewMatrixBacked(k0, st.sc.Bool(st.maxSlots*k0))
		st.taps = append([]complex128(nil), cfg.Taps...)
	}
	// Arrival estimates come from per-(slot, tag) addressable streams
	// under a separate base — joining mid-round consumes nothing from
	// the open-time source and cannot shift any other stream.
	st.arrivalBase = prng.Mix2(st.decodeBase, 0xA221)
	return st, nil
}

func (st *Stream) clampTagWindow(w int) int {
	if w < 0 || w >= st.maxSlots {
		return 0
	}
	return w
}

// Advance applies one slot's population and channel events and returns
// the slot's participation row (valid until Ingest): row[i] reports
// whether joined tag i transmits, reconstructed from the shared
// participation PRNG exactly as the tags themselves compute it. The
// driver synthesizes or receives the air for this row and completes the
// slot with Ingest.
func (st *Stream) Advance(ev SlotEvents) (bits.Vector, error) {
	switch {
	case st.closed:
		return nil, fmt.Errorf("ratedapt: Advance on a closed stream")
	case st.inSlot:
		return nil, fmt.Errorf("ratedapt: Advance before the previous slot's Ingest")
	case st.slot >= st.maxSlots:
		return nil, fmt.Errorf("ratedapt: slot budget exhausted (%d slots)", st.maxSlots)
	}
	slot := st.slot + 1
	if st.d != nil && (len(ev.Arrivals) > 0 || ev.Retap != nil) {
		return nil, fmt.Errorf("ratedapt: RefineChannel streams take no arrivals or retaps")
	}

	if n := len(ev.Arrivals); n > 0 {
		first := st.nJ
		newEst := make([]bits.Vector, n)
		st.tapStage = st.tapStage[:0]
		var src prng.Source
		for j, a := range ev.Arrivals {
			e := make(bits.Vector, st.frameLen)
			src.Reseed(prng.Mix3(st.arrivalBase, uint64(slot), uint64(first+j)))
			bits.RandomInto(&src, e)
			newEst[j] = e
			st.tapStage = append(st.tapStage, a.Tap)
			st.seeds = append(st.seeds, a.Seed)
			st.estimates = append(st.estimates, e)
			st.locked = append(st.locked, false)
			st.verified = append(st.verified, false)
			st.departed = append(st.departed, false)
			st.retired = append(st.retired, false)
			st.decodedAt = append(st.decodedAt, 0)
			st.frames = append(st.frames, nil)
			st.candidates = append(st.candidates, nil)
			st.frameChanged = append(st.frameChanged, false)
			st.frameOK = append(st.frameOK, false)
			st.crcValid = append(st.crcValid, false)
			st.participation = append(st.participation, 0)
			st.rowsRetiredTag = append(st.rowsRetiredTag, 0)
			st.present = append(st.present, first+j)
			st.live = append(st.live, first+j)
			st.margin = append(st.margin, 0)
			st.ambiguous = append(st.ambiguous, false)
			if st.wins != nil {
				st.wins = append(st.wins, st.clampTagWindow(a.Window))
			}
		}
		st.sess.Grow(st.tapStage, newEst)
		st.nJ += n
		st.popChanged = true
	}

	for _, i := range ev.Departs {
		if i < 0 || i >= st.nJ {
			return nil, fmt.Errorf("ratedapt: departure of unknown tag %d (%d joined)", i, st.nJ)
		}
		if st.departed[i] {
			continue
		}
		st.departed[i] = true
		st.nDeparted++
		st.popChanged = true
		if x, ok := slices.BinarySearch(st.present, i); ok {
			st.present = slices.Delete(st.present, x, x+1)
		}
		if !st.noQuiesce {
			st.parting = append(st.parting, i)
		}
		if !st.locked[i] {
			// Retire: freeze the reader's best estimate of the departed
			// tag out of the fan-out; its message is lost.
			st.locked[i] = true
			st.retired[i] = true
			st.nResolved++
		}
	}

	if st.popChanged {
		// The reader re-tunes the participation density to the tags
		// actually on the air, once per slot after both event kinds.
		// Presence is counted incrementally (nJ − nDeparted): a recount
		// over the joined roster would cost O(N) per churn slot, which
		// warehouse-scale rosters churn on nearly every slot.
		st.density = participationDensity(st.cfg.Density, st.nJ-st.nDeparted)
		st.popChanged = false
	}

	if ev.Retap != nil {
		if len(ev.Retap) != st.nJ {
			return nil, fmt.Errorf("ratedapt: retap has %d taps for %d joined tags", len(ev.Retap), st.nJ)
		}
		// A quiescent tag's tap is read by nothing (bp.Session.Quiescent),
		// so it keeps the one it had, whether or not the driver froze it.
		st.sess.RetapTags(ev.Retap, st.live)
	}

	st.slotMark = st.sc.Mark()
	st.inSlot = true
	st.slot = slot
	row := bits.Vector(st.sc.Bool(st.nJ))
	cols := st.cols[:0]
	for _, i := range st.present {
		// Verified tags keep colliding until the single global stop
		// (§8.2 rejects per-tag ACKs) unless the reader ACKs them
		// (SilenceDecoded); either way the reader's D knows who is on.
		if !(st.cfg.SilenceDecoded && st.verified[i]) && Participates(st.seeds[i], st.cfg.SessionSalt, slot, st.density) {
			row[i] = true
			cols = append(cols, i)
			st.participation[i]++
		}
	}
	st.cols = cols
	if st.d != nil {
		st.d.AppendRow(row)
	}
	st.row = row
	return row, nil
}

// Ingest completes the slot Advance opened: append the observations,
// decode incrementally, apply the acceptance gates, slide the coherence
// window(s). obs must hold one received symbol per bit position for the
// row Advance returned.
func (st *Stream) Ingest(obs []complex128) (StepResult, error) {
	if err := st.BeginIngest(obs); err != nil {
		return StepResult{}, err
	}
	j := st.SlotJob()
	st.sess.DecodeSlot(j.Slot, j.Locked, j.Base, j.MinMargin, j.Ambiguous)
	return st.FinishIngest()
}

// BeginIngest is the first half of Ingest: it appends the observations,
// applies the channel refinement fit when armed, and stages the slot's
// decode as a bp.SlotJob (see SlotJob) without running it. Ingest is
// exactly BeginIngest, SlotJob's DecodeSlot and FinishIngest; the split
// lets a driver observe the decode on its own.
func (st *Stream) BeginIngest(obs []complex128) error {
	if !st.inSlot {
		return fmt.Errorf("ratedapt: Ingest without Advance")
	}
	if st.staged {
		return fmt.Errorf("ratedapt: BeginIngest before the previous FinishIngest")
	}
	if len(obs) != st.frameLen {
		return fmt.Errorf("ratedapt: got %d observations for frame length %d", len(obs), st.frameLen)
	}
	st.sess.AppendColliders(st.cols, obs)
	if st.d != nil && st.slot > 1 {
		// Re-fit the taps against the current estimates — after this
		// slot's append, before its decode — and let the next DecodeSlot
		// rebuild under them.
		if refined, ok := refineTaps(st.d, st.sess.Ys(), st.estimates, st.taps, st.sc); ok {
			st.taps = refined
			st.sess.SetTaps(refined)
		}
	}
	st.staged = true
	return nil
}

// SlotJob returns the decode BeginIngest staged. Valid until the
// matching FinishIngest.
func (st *Stream) SlotJob() bp.SlotJob {
	return bp.SlotJob{
		S:         st.sess,
		Slot:      st.slot,
		Locked:    st.locked[:st.nJ],
		Base:      st.decodeBase,
		MinMargin: st.margin,
		Ambiguous: st.ambiguous,
	}
}

// FinishIngest is the second half of Ingest: acceptance gates and
// window slides over the decode the staged job produced. The job must
// have been decoded (the job's DecodeSlot) before this call.
func (st *Stream) FinishIngest() (StepResult, error) {
	if !st.staged {
		return StepResult{}, fmt.Errorf("ratedapt: FinishIngest without BeginIngest")
	}
	st.staged = false

	// Acceptance gates (see acceptSlot).
	st.accepted = st.accepted[:0]
	newly := st.cfg.acceptSlot(st.sess, st.slot, st.nJ, st.frameLen, &st.gateState, st.margin, st.ambiguous,
		st.cfg.gatesWith(st.sess, st.win, st.wins, st.confirmWin), func(i int) {
			st.verified[i] = true
			st.nResolved++
			st.accepted = append(st.accepted, i)
		})
	st.totalAccepted += newly

	retired := slideWindow(st.sess, st.win, st.slot)
	if st.wins != nil {
		retired += slideTagWindows(st.sess, st.wins, st.nJ, st.slot, st.rowsRetiredTag)
	}
	st.rowsRetired += retired
	st.findQuiescent()

	st.sc.Release(st.slotMark)
	st.inSlot = false
	st.row = nil
	return StepResult{
		Slot:          st.slot,
		Colliders:     len(st.cols),
		NewlyAccepted: newly,
		TotalAccepted: st.totalAccepted,
		RowsRetired:   retired,
		Done:          st.Done(),
	}, nil
}

// Close releases the stream's scratch scope and returns a pooled
// session. Idempotent. The per-tag accessors below are invalid after
// Close (their backing may be scratch).
func (st *Stream) Close() {
	if st.closed {
		return
	}
	st.inSlot = false
	st.staged = false
	st.sc.Release(st.openMark)
	if st.ownSess {
		bp.PutSession(st.sess)
	}
	st.sess = nil
	st.closed = true
}

// findQuiescent moves the departed tags the session now finds quiescent
// (bp.Session.Quiescent) from parting to quiesced and out of live. A
// departed tag joins no new row, so that is exactly the session's rule,
// and it is permanent.
func (st *Stream) findQuiescent() {
	st.quiesced = st.quiesced[:0]
	keep := st.parting[:0]
	for _, i := range st.parting {
		if !st.sess.Quiescent(i) {
			keep = append(keep, i)
			continue
		}
		st.quiesced = append(st.quiesced, i)
		if x, ok := slices.BinarySearch(st.live, i); ok {
			st.live = slices.Delete(st.live, x, x+1)
		}
	}
	st.parting = keep
}

// NewlyQuiescent lists the tags the last Ingest found quiescent: departed
// tags whose taps no decision reads again (bp.Session.Quiescent). Each
// is listed once. The stream installs no later tap for them, so a
// driver can stop evolving them (channel.Process.Freeze, as
// TransferDynamic does) and every output stays as it was. A driver may also keep
// sending their moving taps. Valid until the next Ingest.
func (st *Stream) NewlyQuiescent() []int { return st.quiesced }

// Done reports whether every joined tag is resolved (verified or
// retired by departure).
func (st *Stream) Done() bool { return st.nResolved == st.nJ }

// TakeDecodeCost drains the session's per-phase decode cost counters
// (see bp.Session.TakeDecodeCost). Call between slots, before Close.
func (st *Stream) TakeDecodeCost() bp.DecodeCost { return st.sess.TakeDecodeCost() }

// Slot returns the last slot Advance opened (0 before the first).
func (st *Stream) Slot() int { return st.slot }

// Joined returns the number of tags that have joined the stream.
func (st *Stream) Joined() int { return st.nJ }

// FrameLen returns the session's frame length (payload + CRC bits).
func (st *Stream) FrameLen() int { return st.frameLen }

// MaxSlots returns the session's slot budget.
func (st *Stream) MaxSlots() int { return st.maxSlots }

// TotalAccepted returns the cumulative accepted-frame count.
func (st *Stream) TotalAccepted() int { return st.totalAccepted }

// RowsRetired returns the cumulative window-retired row count.
func (st *Stream) RowsRetired() int { return st.rowsRetired }

// Accepted returns the join-order indices accepted by the last Ingest;
// the slice is reused across slots.
func (st *Stream) Accepted() []int { return st.accepted }

// Frame returns tag i's accepted frame (payload + CRC), nil if not
// accepted. The vector is the stream's own copy, stable until Close.
func (st *Stream) Frame(i int) bits.Vector { return st.frames[i] }

// Verified returns the per-tag accepted flags in join order — a live
// view, valid until Close.
func (st *Stream) Verified() []bool { return st.verified }

// Retired returns the per-tag departed-before-verified flags in join
// order — a live view, valid until Close.
func (st *Stream) Retired() []bool { return st.retired }

// DecodedAt returns the per-tag acceptance slots in join order — a live
// view, valid until Close.
func (st *Stream) DecodedAt() []int { return st.decodedAt }

// ParticipationCounts returns the per-tag participation counts in join
// order — a live view, valid until Close.
func (st *Stream) ParticipationCounts() []int { return st.participation }

// RowsRetiredPerTag returns the per-tag window-retired row counts in
// join order (all zero unless the per-tag policy is armed) — a live
// view, valid until Close.
func (st *Stream) RowsRetiredPerTag() []int { return st.rowsRetiredTag }

// Frames returns the per-tag accepted frames in join order (nil entries
// for unaccepted tags) — a live view, valid until Close.
func (st *Stream) Frames() []bits.Vector { return st.frames }
