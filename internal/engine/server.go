package engine

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/bits"
	"repro/internal/engine/wire"
	"repro/internal/prng"
	"repro/internal/ratedapt"
)

// ServerConfig parameterizes the wire-protocol front end.
type ServerConfig struct {
	// IdleTimeout bounds the gap between frames: a connection that
	// starts no new frame within it is dropped (counted as a deadline
	// drop). 0 = no idle bound.
	IdleTimeout time.Duration
	// ReadTimeout bounds completing one frame once its first byte has
	// arrived — a peer that stalls mid-frame cannot hold a session slot
	// forever. 0 = no per-frame bound.
	ReadTimeout time.Duration
	// WriteTimeout bounds each reply write, and so is the one bound on
	// a slow reader: a peer that stops reading stalls only its own
	// connection, through TCP backpressure, and once a write blocks this
	// long the connection is dropped (counted as a deadline drop) and
	// its sessions close. 0 = no bound: the connection waits for its
	// peer.
	WriteTimeout time.Duration
	// MalformedBudget is how many malformed-but-framed frames one
	// connection may send (each answered with a Malformed error) before
	// it is dropped. 0 = DefaultMalformedBudget; negative = drop on the
	// first.
	MalformedBudget int
}

// DefaultMalformedBudget is the per-connection malformed-frame error
// budget applied when ServerConfig.MalformedBudget is zero.
const DefaultMalformedBudget = 3

func (c ServerConfig) malformedBudget() int {
	if c.MalformedBudget == 0 {
		return DefaultMalformedBudget
	}
	if c.MalformedBudget < 0 {
		return 0
	}
	return c.MalformedBudget
}

// Server speaks the wire protocol on top of a SessionManager: one
// goroutine per connection reads each frame, drives the manager's
// streaming API — each Slot decodes on it — and writes the reply before
// it reads the next frame. A connection may multiplex any number of
// sessions, keyed by the manager-assigned session ID returned in
// Opened; they decode one after another, in arrival order.
type Server struct {
	m   *SessionManager
	cfg ServerConfig

	mu      sync.Mutex
	lns     map[net.Listener]struct{}
	conns   map[net.Conn]struct{}
	closing bool
	wg      sync.WaitGroup
}

// NewServer wraps a SessionManager in a wire-protocol server.
func NewServer(m *SessionManager, cfg ServerConfig) *Server {
	return &Server{
		m:     m,
		cfg:   cfg,
		lns:   make(map[net.Listener]struct{}),
		conns: make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections on ln until Shutdown closes it (returns
// nil) or the listener fails (returns the error). Callable on several
// listeners concurrently (e.g. a TCP and a unix socket).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("engine: server is shut down")
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.lns, ln)
		s.mu.Unlock()
	}()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closing := s.closing
			s.mu.Unlock()
			if closing || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, nc)
				s.mu.Unlock()
			}()
			s.handle(nc)
		}()
	}
}

// Shutdown stops accepting, drains live sessions (bounded by ctx), then
// force-closes whatever connections remain and waits for their handlers
// to exit. Returns ctx's error when the drain deadline passed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closing = true
	for ln := range s.lns {
		ln.Close()
	}
	s.mu.Unlock()
	err := s.m.Drain(ctx)
	s.mu.Lock()
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// handle runs one connection's loop; it returns when the peer hangs
// up, blows a deadline, exhausts its malformed-frame budget, breaks
// protocol or a reply write fails, closing any sessions left open.
func (s *Server) handle(nc net.Conn) {
	c := &serverConn{
		s:        s,
		nc:       nc,
		sessions: make(map[uint64]*connSession),
	}
	fr := &frameReader{nc: nc, idle: s.cfg.IdleTimeout, readTO: s.cfg.ReadTimeout}
	budget := s.cfg.malformedBudget()
	for {
		fr.begin()
		f, err := wire.ReadFrame(fr)
		if err != nil {
			if errors.Is(err, wire.ErrMalformed) {
				// Framing is intact: answer, burn budget, keep reading
				// until the budget is spent.
				s.m.stats.MalformedFrames.Add(1)
				budget--
				if budget >= 0 {
					c.reply(&wire.Error{Code: wire.CodeMalformed, Msg: err.Error()})
					continue
				}
				c.reply(&wire.Error{Code: wire.CodeMalformed, Msg: "malformed-frame budget exhausted"})
				break
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				s.m.stats.DeadlineDrops.Add(1)
			}
			break
		}
		if !c.dispatch(f) {
			break
		}
	}
	// Retire every session still open, each with its Closed reply; after
	// a failed write the socket is closed and these writes fail at once.
	for _, cs := range c.sessions {
		c.closeSession(cs)
	}
	nc.Close()
}

// frameReader stages read deadlines per frame: begin() arms the idle
// deadline (the wait for a frame's first byte); once that byte lands,
// the deadline tightens to the per-frame read timeout so a mid-frame
// stall cannot hold the connection.
type frameReader struct {
	nc      net.Conn
	idle    time.Duration
	readTO  time.Duration
	started bool
}

func (r *frameReader) begin() {
	r.started = false
	switch {
	case r.idle > 0:
		r.nc.SetReadDeadline(time.Now().Add(r.idle))
	case r.readTO > 0:
		r.nc.SetReadDeadline(time.Now().Add(r.readTO))
	}
	// With neither bound set no deadline is ever armed, so there is
	// none to clear.
}

func (r *frameReader) Read(p []byte) (int, error) {
	n, err := r.nc.Read(p)
	if n > 0 && !r.started {
		r.started = true
		if r.readTO > 0 {
			r.nc.SetReadDeadline(time.Now().Add(r.readTO))
		} else if r.idle > 0 {
			r.nc.SetReadDeadline(time.Time{})
		}
	}
	return n, err
}

// serverConn is one client connection's state, touched only by its
// goroutine.
type serverConn struct {
	s        *Server
	nc       net.Conn
	sessions map[uint64]*connSession
	out      []byte // the reply being written, reused
}

// connSession is one live session of a connection.
type connSession struct {
	ls *LiveSession
	// dims are the session's Open dimensions with its joined tag count
	// (initial tags plus every admitted arrival), against which
	// handleSlot bounds a Slot's arrivals.
	dims tableDims
	// failed is set once a slot fails: its Error was the reply, and
	// later slots for the session get none.
	failed bool
}

// reply writes one frame to the socket in a single Write, bounded by
// the configured write timeout. A failed write closes the socket and
// returns false, which ends the connection.
func (c *serverConn) reply(f wire.Frame) bool {
	b, err := wire.Append(c.out[:0], f)
	if err != nil {
		return false
	}
	c.out = b
	if wto := c.s.cfg.WriteTimeout; wto > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(wto))
	}
	if _, err := c.nc.Write(b); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			c.s.m.stats.DeadlineDrops.Add(1)
		}
		c.nc.Close()
		return false
	}
	return true
}

// closeSession closes one session and writes its Closed reply.
func (c *serverConn) closeSession(cs *connSession) bool {
	sum := cs.ls.Close()
	return c.reply(&wire.Closed{
		SessionID:   cs.ls.ID,
		SlotsUsed:   uint32(sum.SlotsUsed),
		Joined:      uint32(sum.Joined),
		Accepted:    uint32(sum.Accepted),
		RowsRetired: uint64(sum.RowsRetired),
	})
}

// dispatch handles one client frame; false drops the connection.
func (c *serverConn) dispatch(f wire.Frame) bool {
	switch f := f.(type) {
	case *wire.Open:
		return c.handleOpen(f)
	case *wire.Slot:
		return c.handleSlot(f)
	case *wire.Close:
		if cs, ok := c.sessions[f.SessionID]; ok {
			delete(c.sessions, f.SessionID)
			return c.closeSession(cs)
		}
		return c.reply(&wire.Error{SessionID: f.SessionID, Code: wire.CodeUnknownSession, Msg: "unknown session"})
	case *wire.Stats:
		snap := c.s.m.Snapshot()
		return c.reply(&wire.StatsReply{
			ActiveSessions:   snap.ActiveSessions,
			SessionsOpened:   snap.SessionsOpened,
			SessionsClosed:   snap.SessionsClosed,
			SlotsIngested:    snap.SlotsIngested,
			RowsRetired:      snap.RowsRetired,
			PayloadsAccepted: snap.PayloadsAccepted,
			UptimeMillis:     int64(snap.UptimeSeconds * 1000),
			BusyRejected:     snap.BusyRejected,
			DeadlineDrops:    snap.DeadlineDrops,
			MalformedFrames:  snap.MalformedFrames,
			PanicsRecovered:  snap.PanicsRecovered,
		})
	default:
		// Server→client frame types from a client are a protocol
		// breach; answer once and hang up.
		c.reply(&wire.Error{Code: wire.CodeProtocol, Msg: fmt.Sprintf("unexpected frame type 0x%02x", f.Type())})
		return false
	}
}

// errorCode classifies an engine error for the wire.
func errorCode(err error) uint8 {
	switch {
	case errors.Is(err, ErrBusy):
		return wire.CodeBusy
	case errors.Is(err, ErrDraining):
		return wire.CodeDraining
	case errors.Is(err, ErrDecodePanic):
		return wire.CodePanic
	default:
		return wire.CodeGeneric
	}
}

// maxOpenCells bounds the decoder state one Open may reserve. A session
// sizes its largest tables by products of the Open's dimensions, the
// tag cap being the larger of RosterCap and the initial tag count:
// frame length × MaxSlots (observations and residuals), frame length ×
// tag cap (per-position tag state), tag cap² (the co-occurrence Gram)
// and (1 + Restarts) × tag cap (the restart pass blocks). handleOpen
// refuses an Open whose product exceeds 2²⁴ cells before anything is
// allocated, which keeps each table at or under 256 MiB; handleSlot
// refuses a Slot whose arrivals would take the tag count there. The
// largest example spec, warehouse.json (558-tag cap, 2,400 slots,
// 48-bit frames), needs at most 311,364 (its Gram).
const maxOpenCells = 1 << 24

// tableDims are the dimensions a session's decoder tables are sized
// by: frame length, slot budget, restarts, roster cap and the number of
// tags joined so far. The tag cap is the larger of the roster cap and
// the joined count.
type tableDims struct {
	frameLen, maxSlots, restarts, rosterCap, joined uint64
}

func openDims(o *wire.Open) tableDims {
	return tableDims{
		frameLen:  uint64(o.MessageBits) + uint64(bits.CRCKind(o.CRC).Width()),
		maxSlots:  uint64(o.MaxSlots),
		restarts:  uint64(o.Restarts),
		rosterCap: uint64(o.RosterCap),
		joined:    uint64(len(o.Seeds)),
	}
}

// tooLarge describes the first of d's table sizes (see maxOpenCells)
// that exceeds the bound, or returns "" when none does. Every factor is
// below 2³², so no product overflows a uint64.
func (d tableDims) tooLarge() string {
	tags := max(d.rosterCap, d.joined)
	for _, t := range []struct {
		name  string
		cells uint64
	}{
		{"frame length × max slots", d.frameLen * d.maxSlots},
		{"frame length × tag cap", d.frameLen * tags},
		{"tag cap²", tags * tags},
		{"passes × tag cap", (1 + d.restarts) * tags},
	} {
		if t.cells > maxOpenCells {
			return fmt.Sprintf("%s is %d cells, limit %d", t.name, t.cells, maxOpenCells)
		}
	}
	return ""
}

// openTooLarge describes the first of o's table sizes that exceeds
// maxOpenCells, or returns "" when none does.
func openTooLarge(o *wire.Open) string {
	if msg := openDims(o).tooLarge(); msg != "" {
		return "open too large: " + msg
	}
	return ""
}

func (c *serverConn) handleOpen(o *wire.Open) bool {
	if o.Version != wire.ProtocolVersion {
		return c.reply(&wire.Error{Msg: fmt.Sprintf("protocol version %d, want %d", o.Version, wire.ProtocolVersion)})
	}
	if o.CRC > uint8(bits.CRC16) {
		return c.reply(&wire.Error{Msg: fmt.Sprintf("unknown CRC kind %d", o.CRC)})
	}
	if msg := openTooLarge(o); msg != "" {
		return c.reply(&wire.Error{Msg: msg})
	}
	cfg := ratedapt.StreamConfig{
		SessionSalt:     o.Salt,
		CRC:             bits.CRCKind(o.CRC),
		Density:         o.Density,
		Restarts:        int(o.Restarts),
		MinDegreeForCRC: int(o.MinDegree),
		MarginThreshold: o.MarginThreshold,
		MessageBits:     int(o.MessageBits),
		MaxSlots:        int(o.MaxSlots),
		WindowSlots:     int(o.WindowSlots),
		WindowSoft:      o.WindowSoft,
		ConfirmWindow:   int(o.ConfirmWindow),
		Seeds:           o.Seeds,
		Taps:            o.Taps,
		RosterCap:       int(o.RosterCap),
		DecodeSrc:       prng.NewSource(o.DecodeSeed),
	}
	if o.WindowTag != nil {
		cfg.WindowTag = make([]int, len(o.WindowTag))
		for i, w := range o.WindowTag {
			cfg.WindowTag[i] = int(w)
		}
	}

	ls, err := c.s.m.Open(cfg)
	if err != nil {
		return c.reply(&wire.Error{Code: errorCode(err), Msg: err.Error()})
	}
	c.sessions[ls.ID] = &connSession{ls: ls, dims: openDims(o)}
	return c.reply(&wire.Opened{SessionID: ls.ID, FrameLen: uint32(ls.FrameLen())})
}

func (c *serverConn) handleSlot(f *wire.Slot) bool {
	cs, ok := c.sessions[f.SessionID]
	if !ok {
		return c.reply(&wire.Error{SessionID: f.SessionID, Code: wire.CodeUnknownSession, Msg: "unknown session"})
	}
	// A Slot's arrivals grow the session's tag count, and with it the
	// tables Open bounded: refuse a slot that would take them past
	// maxOpenCells before anything is converted or grown. The session
	// stays open and has not seen the slot.
	dims := cs.dims
	dims.joined += uint64(len(f.Arrivals))
	if msg := dims.tooLarge(); msg != "" {
		return c.reply(&wire.Error{SessionID: f.SessionID, Code: wire.CodeTooLarge, Msg: "slot too large: " + msg})
	}
	cs.dims = dims
	if cs.failed {
		return true
	}
	var ev ratedapt.SlotEvents
	if len(f.Arrivals) > 0 {
		ev.Arrivals = make([]ratedapt.StreamArrival, len(f.Arrivals))
		for i, a := range f.Arrivals {
			ev.Arrivals[i] = ratedapt.StreamArrival{Seed: a.Seed, Tap: a.Tap, Window: int(a.Window)}
		}
	}
	if len(f.Departs) > 0 {
		ev.Departs = make([]int, len(f.Departs))
		for i, d := range f.Departs {
			ev.Departs[i] = int(d)
		}
	}
	ev.Retap = f.Retap
	out, err := cs.ls.Feed(ev, f.Obs)
	if err != nil {
		cs.failed = true
		return c.reply(&wire.Error{SessionID: f.SessionID, Code: errorCode(err), Msg: err.Error()})
	}
	d := &wire.Decisions{
		SessionID:     f.SessionID,
		Slot:          uint32(out.Step.Slot),
		Colliders:     uint32(out.Step.Colliders),
		TotalAccepted: uint32(out.Step.TotalAccepted),
		RowsRetired:   uint32(out.Step.RowsRetired),
		Done:          out.Step.Done,
	}
	for _, a := range out.Accepted {
		d.Accepted = append(d.Accepted, wire.Decision{Tag: uint32(a.Tag), Frame: a.Frame})
	}
	return c.reply(d)
}
