// Package replay is the wire protocol's reference client: it plays the
// tag/air side of a scenario trial against a buzzd daemon, frame by
// frame. The daemon only ever sees observations — like a real reader
// front end — while this client draws the trial with
// scenario.Spec.Trial, resolves its windows with the spec's
// WindowPolicy and walks its roster with ratedapt.RosterWalk: the
// derivation and walk sim.Run's in-process slot loop uses. The payload
// decisions coming back over the socket are therefore byte-identical to
// a batch run of the same spec and seed; the engine conformance test
// holds every example scenario to that.
//
// Trial synthesis is split from transport: a trialState advances the
// tag-side mirror exactly once per slot and caches every frame it
// sends, so a Client can survive a dead connection by redialing with
// backoff, opening a fresh session, and refeeding the cached slots —
// decisions are a pure function of (Open config, slots 1..n), which
// makes the refeed idempotent.
package replay

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/bits"
	"repro/internal/engine/wire"
	"repro/internal/prng"
	"repro/internal/ratedapt"
	"repro/internal/scenario"
)

// TrialResult is one replayed trial's outcome, in roster order —
// the streaming counterpart of the fields sim.BuzzTrial keeps.
type TrialResult struct {
	// Verified flags roster tags whose frame passed the daemon's gates.
	Verified []bool
	// Frames holds each verified tag's accepted frame (payload + CRC).
	Frames []bits.Vector
	// Retired flags tags that departed before delivering.
	Retired []bool
	// Messages are the payloads the trial transmitted (the ground
	// truth a caller scores Frames against).
	Messages []bits.Vector
	// SlotsUsed and RowsRetired mirror the batch result's accounting.
	SlotsUsed   int
	RowsRetired int
	// Summary is the daemon's closing frame for the session.
	Summary wire.Closed
}

// Payloads returns the delivered payloads (nil where unverified).
func (t *TrialResult) Payloads(crc bits.CRCKind) []bits.Vector {
	out := make([]bits.Vector, len(t.Frames))
	for i, f := range t.Frames {
		if t.Verified[i] {
			out[i] = bits.PayloadOf(f, crc)
		}
	}
	return out
}

// trialState is one trial's client side, split into a synthesis mirror
// that advances exactly once per slot (population, participation,
// channel process, the noise stream) and a transcript of what was sent
// and decided. The mirror is never rewound: a refeed after a reconnect
// replays cached frames, so the same slot is never synthesized — and
// the noise stream never drawn — twice. The transcript, in turn, is
// per-slot (decisions overwritten on refeed, summed only at the end),
// so re-applying a refeed's replies cannot double-count anything.
type trialState struct {
	tr       scenario.Trial
	crc      bits.CRCKind
	kTot     int
	maxSlots int
	frames   []bits.Vector
	open     *wire.Open
	frameLen int
	// strictTruth makes the client reject a Decisions reply whose
	// accepted frame is not the tag's transmitted frame, treating it as
	// transport corruption (the reconnecting client's defense against
	// in-flight bit flips that survive framing). The lockstep
	// conformance path leaves it off and lets the caller score frames.
	strictTruth bool

	// --- synthesis mirror; advances once per slot. ---
	walk      ratedapt.RosterWalk
	row       []bool
	obs       []complex128
	activeIdx []int
	tagPow    []float64
	density   float64

	// --- transcript; index = slot-1, rewritten freely on refeed. ---
	sent    []sentSlot
	dec     []*wire.Decisions
	summary wire.Closed
}

// sentSlot is one cached outbound slot frame plus the roster position
// reached after its arrivals — the piece of mirror state the stop
// condition needs when replaying the cache.
type sentSlot struct {
	frame   *wire.Slot
	nextArr int
}

// newTrialState draws the trial with scenario.Spec.Trial and resolves
// its coherence windows with the spec's WindowPolicy — the derivation
// sim.Run makes, so both ends of the wire hold the same trial.
func newTrialState(spec scenario.Spec, trial int) (*trialState, error) {
	crc, err := spec.CRCKind()
	if err != nil {
		return nil, err
	}
	// The roster is a pure function of the spec, so both ends of the
	// wire derive it without exchanging it.
	rost, err := spec.ResolveRoster()
	if err != nil {
		return nil, err
	}
	kTot := len(rost.Windows)
	maxSlots := spec.Decode.MaxSlots
	if kTot < 1 || maxSlots < 1 {
		return nil, fmt.Errorf("replay: spec needs defaults applied (k=%d, max_slots=%d)", kTot, maxSlots)
	}
	tr := spec.Trial(rost, trial, nil)
	// The client owns the channel model, so window resolution happens
	// here and travels in the Open frame.
	win, wins, confirm := spec.Decode.WindowPolicy().Resolve(tr.Process, maxSlots, kTot)
	walk, err := ratedapt.NewRosterWalk(tr.Tags, wins)
	if err != nil {
		return nil, err
	}
	k0 := walk.Arrived()
	frames := make([]bits.Vector, kTot)
	for i := range frames {
		frames[i] = bits.Message{Payload: tr.Messages[i], Kind: crc}.Frame()
	}

	seeds := make([]uint64, k0)
	for i := range seeds {
		seeds[i] = tr.Tags[i].Seed
	}
	dm := tr.Process.ModelAt(1)
	open := &wire.Open{
		Version:       wire.ProtocolVersion,
		Salt:          tr.Salt,
		DecodeSeed:    tr.DecodeSeed,
		CRC:           uint8(crc),
		MessageBits:   uint16(spec.Workload.MessageBits),
		MaxSlots:      uint32(maxSlots),
		Restarts:      uint16(spec.Decode.Restarts),
		WindowSlots:   uint32(win),
		ConfirmWindow: uint32(confirm),
		RosterCap:     uint32(kTot),
		Seeds:         seeds,
		Taps:          dm.Taps[:k0],
	}
	if wins != nil {
		open.WindowTag = make([]uint32, k0)
		for i := range open.WindowTag {
			open.WindowTag[i] = uint32(wins[i])
		}
	}

	frameLen := spec.Workload.MessageBits + crc.Width()
	return &trialState{
		tr:        tr,
		crc:       crc,
		kTot:      kTot,
		maxSlots:  maxSlots,
		frames:    frames,
		open:      open,
		frameLen:  frameLen,
		walk:      walk,
		row:       make([]bool, kTot),
		obs:       make([]complex128, frameLen),
		activeIdx: make([]int, kTot),
		tagPow:    make([]float64, kTot),
		density:   ratedapt.ParticipationDensity(0, k0),
	}, nil
}

// synthSlot advances the tag-side mirror one slot — the roster walk's
// arrivals and departures, the participation draw, the air — and
// returns a self-contained Slot frame (all buffers copied, SessionID
// unset) safe to cache and resend verbatim. Each departure is listed
// once, at the slot it fires.
func (st *trialState) synthSlot(slot int) *wire.Slot {
	sf := &wire.Slot{}
	ev := st.walk.Next(slot, st.tr.Process)
	for _, a := range ev.Arrivals {
		sf.Arrivals = append(sf.Arrivals, wire.Arrival{Seed: a.Seed, Tap: a.Tap, Window: uint32(a.Window)})
	}
	for _, i := range ev.Departs {
		sf.Departs = append(sf.Departs, uint32(i))
	}
	if ev.Retap != nil {
		sf.Retap = append([]complex128(nil), ev.Retap...)
	}
	n, gone := st.walk.Arrived(), st.walk.Departed()
	if len(ev.Arrivals) > 0 || len(ev.Departs) > 0 {
		st.density = ratedapt.ParticipationDensity(0, n-gone)
	}

	// Tag side: who transmits this slot (the tags' shared participation
	// rule; the departed tags are the roster prefix [0, gone)), and what
	// the reader's antenna receives.
	for i := 0; i < n; i++ {
		st.row[i] = i >= gone && ratedapt.Participates(st.tr.Tags[i].Seed, st.tr.Salt, slot, st.density)
	}
	m := st.tr.Process.ModelAt(slot)
	if slot == 1 || len(ev.Arrivals) > 0 || !st.tr.Process.Static() {
		for i, h := range m.Taps[:n] {
			st.tagPow[i] = real(h)*real(h) + imag(h)*imag(h)
		}
	}
	ratedapt.SynthAir(m, st.frames, st.row[:n], st.obs, st.activeIdx, nil, st.tagPow, st.tr.Noise)
	sf.Obs = append([]complex128(nil), st.obs...)
	return sf
}

// finished reports whether the transcript already covers the trial:
// the slot cap is reached, or the last decision said done with the
// whole roster arrived — the same stop rule the batch engine applies.
func (st *trialState) finished() bool {
	if len(st.sent) >= st.maxSlots {
		return true
	}
	if n := len(st.sent); n > 0 {
		return st.dec[n-1].Done && st.sent[n-1].nextArr == st.kTot
	}
	return false
}

// checkDecisions vets one slot reply against the transcript position,
// whose sent frame st.sent[slot-1] must already be recorded: a decision
// may name only a tag that has joined by that slot. Any mismatch means
// the transport desynchronized (a duplicated, dropped, or corrupted
// frame) and the session is unsalvageable on this connection — the
// caller reconnects and refeeds.
func (st *trialState) checkDecisions(dec *wire.Decisions, sid uint64, slot int) error {
	if dec.SessionID != sid {
		return fmt.Errorf("replay: slot %d: reply for session %d, want %d", slot, dec.SessionID, sid)
	}
	if int(dec.Slot) != slot {
		return fmt.Errorf("replay: slot %d: reply for slot %d — stream desynchronized", slot, dec.Slot)
	}
	joined := st.sent[slot-1].nextArr
	for _, d := range dec.Accepted {
		if int(d.Tag) >= joined {
			return fmt.Errorf("replay: slot %d: daemon accepted tag %d, but only %d tags have joined", slot, d.Tag, joined)
		}
		if len(d.Frame) != st.frameLen || !bits.Verify(d.Frame, st.crc) {
			return fmt.Errorf("replay: slot %d: accepted frame for tag %d fails CRC — corrupted in flight", slot, d.Tag)
		}
		if st.strictTruth && !d.Frame.Equal(st.frames[d.Tag]) {
			return fmt.Errorf("replay: slot %d: accepted frame for tag %d is not the transmitted frame", slot, d.Tag)
		}
	}
	return nil
}

// bufferedConn reads a connection through a bufio.Reader, so a reply
// frame costs one read of the connection instead of two. It lives for
// one trial on one connection: every exchange is one request and one
// fully read reply, so no bytes are left buffered when it is dropped.
type bufferedConn struct {
	*bufio.Reader
	io.Writer
}

func newBufferedConn(rw io.ReadWriter) bufferedConn {
	return bufferedConn{bufio.NewReader(rw), rw}
}

// exchange writes one frame and reads its reply.
func exchange(rw io.ReadWriter, f wire.Frame) (wire.Frame, error) {
	if err := wire.WriteFrame(rw, f); err != nil {
		return nil, err
	}
	return wire.ReadFrame(rw)
}

// run plays the trial over one connection: Open, refeed whatever the
// transcript already holds, synthesize and feed the rest, Close. Any
// error leaves the transcript intact for the next attempt.
func (st *trialState) run(rw io.ReadWriter) error {
	rep, err := exchange(rw, st.open)
	if err != nil {
		return err
	}
	opened, ok := rep.(*wire.Opened)
	if !ok {
		return replyError("open", rep)
	}
	sid := opened.SessionID
	if int(opened.FrameLen) != st.frameLen {
		return fmt.Errorf("replay: daemon frame length %d, client computes %d", opened.FrameLen, st.frameLen)
	}

	// Refeed the cached transcript (no-op on a first attempt). The
	// daemon's decisions are a pure function of the Open config and the
	// slot sequence, so the replies normally match what we already
	// recorded; they are re-applied wholesale either way, and if this
	// pass reaches "done" earlier (the previous pass carried in-flight
	// corruption the refeed did not), the tail is discarded.
	for i, s := range st.sent {
		s.frame.SessionID = sid
		rep, err := exchange(rw, s.frame)
		if err != nil {
			return err
		}
		dec, ok := rep.(*wire.Decisions)
		if !ok {
			return replyError(fmt.Sprintf("slot %d", i+1), rep)
		}
		if err := st.checkDecisions(dec, sid, i+1); err != nil {
			return err
		}
		st.dec[i] = dec
		if dec.Done && s.nextArr == st.kTot && i+1 < len(st.sent) {
			st.sent = st.sent[:i+1]
			st.dec = st.dec[:i+1]
			break
		}
	}

	for !st.finished() {
		slot := len(st.sent) + 1
		sf := st.synthSlot(slot)
		sf.SessionID = sid
		st.sent = append(st.sent, sentSlot{frame: sf, nextArr: st.walk.Arrived()})
		st.dec = append(st.dec, nil)
		rep, err := exchange(rw, sf)
		if err != nil {
			return err
		}
		dec, ok := rep.(*wire.Decisions)
		if !ok {
			return replyError(fmt.Sprintf("slot %d", slot), rep)
		}
		if err := st.checkDecisions(dec, sid, slot); err != nil {
			return err
		}
		st.dec[slot-1] = dec
	}

	rep, err = exchange(rw, &wire.Close{SessionID: sid})
	if err != nil {
		return err
	}
	closed, ok := rep.(*wire.Closed)
	if !ok {
		return replyError("close", rep)
	}
	st.summary = *closed
	return nil
}

// result folds the transcript into a TrialResult: sent frames and
// decisions are re-walked in slot order, so a tag counts as retired
// exactly when its departure frame precedes any slot that accepted it,
// and RowsRetired is a sum over per-slot values, immune to refeed
// double-counting.
func (st *trialState) result() *TrialResult {
	res := &TrialResult{
		Verified: make([]bool, st.kTot),
		Frames:   make([]bits.Vector, st.kTot),
		Retired:  make([]bool, st.kTot),
		Messages: st.tr.Messages,
	}
	slots := len(st.sent)
	for s := 1; s <= slots; s++ {
		for _, i := range st.sent[s-1].frame.Departs {
			if !res.Verified[i] {
				res.Retired[i] = true
			}
		}
		dec := st.dec[s-1]
		for _, d := range dec.Accepted {
			res.Verified[d.Tag] = true
			res.Frames[d.Tag] = d.Frame
		}
		res.RowsRetired += int(dec.RowsRetired)
	}
	res.SlotsUsed = slots
	res.Summary = st.summary
	return res
}

// RunTrial replays one trial of spec over an open daemon connection in
// lock step: one Slot frame out, one Decisions frame back. spec must
// have defaults applied and be valid (scenario.Load guarantees both).
func RunTrial(rw io.ReadWriter, spec scenario.Spec, trial int) (*TrialResult, error) {
	st, err := newTrialState(spec, trial)
	if err != nil {
		return nil, err
	}
	if err := st.run(newBufferedConn(rw)); err != nil {
		return nil, err
	}
	return st.result(), nil
}

// Client is the reconnecting replay client: it plays trials like
// RunTrial but survives dead connections, daemon restarts, and
// transient Busy rejections by redialing with seeded exponential
// backoff and refeeding the trial's cached slots into a fresh session.
// Re-opening is idempotent because decisions are a pure function of
// the Open config and the slot sequence; the daemon reaps the
// half-fed session of a broken connection on teardown.
type Client struct {
	// Dial opens a connection to the daemon. Required.
	Dial func() (net.Conn, error)
	// IOTimeout bounds each frame write and each reply read. 0 = none —
	// but then a dropped reply blocks forever; set it under fault
	// injection.
	IOTimeout time.Duration
	// MaxAttempts is the connection budget per trial (first attempt
	// included). 0 = 8.
	MaxAttempts int
	// BackoffBase and BackoffMax shape the retry delay:
	// min(base<<attempt, max), half of it deterministic jitter drawn
	// from Seed. 0 = 50ms base, 2s max.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the jitter stream; same seed, same delays.
	Seed uint64
	// OnRetry, when set, observes each failed attempt before its
	// backoff sleep.
	OnRetry func(trial, attempt int, err error)

	conn net.Conn
}

func (c *Client) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 8
}

// BackoffFor computes attempt's retry delay (attempt counts from 1):
// exponential with a floor of half the step, the other half jittered
// deterministically by (Seed, trial, attempt) so concurrent clients
// desynchronize but a rerun reproduces.
func (c *Client) BackoffFor(trial, attempt int) time.Duration {
	base := c.BackoffBase
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxD := c.BackoffMax
	if maxD <= 0 {
		maxD = 2 * time.Second
	}
	d := base << uint(attempt-1)
	if d <= 0 || d > maxD {
		d = maxD
	}
	half := d / 2
	j := prng.Mix3(c.Seed, uint64(trial), uint64(attempt))
	return half + time.Duration(j%uint64(half+1))
}

// Close releases the client's pooled connection, if any.
func (c *Client) Close() error {
	if c.conn != nil {
		err := c.conn.Close()
		c.conn = nil
		return err
	}
	return nil
}

// ioConn arms per-call deadlines on a net.Conn so a dropped or stalled
// frame surfaces as a timeout instead of blocking the trial forever.
type ioConn struct {
	nc net.Conn
	to time.Duration
}

func (c ioConn) Read(p []byte) (int, error) {
	if c.to > 0 {
		c.nc.SetReadDeadline(time.Now().Add(c.to))
	}
	return c.nc.Read(p)
}

func (c ioConn) Write(p []byte) (int, error) {
	if c.to > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(c.to))
	}
	return c.nc.Write(p)
}

// RunTrial replays one trial, reconnecting as needed. The returned
// error, if any, wraps the last attempt's failure.
func (c *Client) RunTrial(spec scenario.Spec, trial int) (*TrialResult, error) {
	if c.Dial == nil {
		return nil, errors.New("replay: Client.Dial is nil")
	}
	st, err := newTrialState(spec, trial)
	if err != nil {
		return nil, err
	}
	st.strictTruth = true
	var lastErr error
	for attempt := 1; attempt <= c.maxAttempts(); attempt++ {
		if attempt > 1 {
			time.Sleep(c.BackoffFor(trial, attempt-1))
		}
		if c.conn == nil {
			nc, err := c.Dial()
			if err != nil {
				lastErr = err
				if c.OnRetry != nil {
					c.OnRetry(trial, attempt, err)
				}
				continue
			}
			c.conn = nc
		}
		err := st.run(newBufferedConn(ioConn{nc: c.conn, to: c.IOTimeout}))
		if err == nil {
			return st.result(), nil
		}
		// Any failure poisons the connection: even when the daemon
		// replied with a clean typed error (Busy, say), the session on
		// this conn is gone and a half-read reply may still be in
		// flight. Drop the conn; the redial re-opens idempotently.
		lastErr = err
		c.conn.Close()
		c.conn = nil
		if c.OnRetry != nil {
			c.OnRetry(trial, attempt, err)
		}
	}
	return nil, fmt.Errorf("replay: trial %d: gave up after %d attempts: %w", trial, c.maxAttempts(), lastErr)
}

// RunScenario replays every trial of spec through the reconnecting
// client, reusing one connection across trials when it stays healthy.
func (c *Client) RunScenario(spec scenario.Spec) ([]*TrialResult, error) {
	out := make([]*TrialResult, spec.Trials)
	for trial := 0; trial < spec.Trials; trial++ {
		res, err := c.RunTrial(spec, trial)
		if err != nil {
			return nil, err
		}
		out[trial] = res
	}
	return out, nil
}

// FetchStats asks the daemon for its live counters.
func FetchStats(rw io.ReadWriter) (*wire.StatsReply, error) {
	rep, err := exchange(rw, &wire.Stats{})
	if err != nil {
		return nil, err
	}
	st, ok := rep.(*wire.StatsReply)
	if !ok {
		return nil, replyError("stats", rep)
	}
	return st, nil
}

func replyError(ctx string, rep wire.Frame) error {
	if e, ok := rep.(*wire.Error); ok {
		return fmt.Errorf("replay: %s: daemon error (code %d): %s", ctx, e.Code, e.Msg)
	}
	return fmt.Errorf("replay: %s: unexpected reply type 0x%02x", ctx, rep.Type())
}
