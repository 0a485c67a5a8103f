package engine_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/leaktest"
	"repro/internal/engine/wire"
)

// startWireServer boots a loopback server and returns the manager, the
// dial address, and a shutdown func (idempotent; also run on cleanup).
func startWireServer(t *testing.T, mcfg engine.Config, scfg engine.ServerConfig) (*engine.SessionManager, *engine.Server, string) {
	t.Helper()
	m := engine.New(mcfg)
	srv := engine.NewServer(m, scfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("cleanup shutdown: %v", err)
		}
		m.Close()
	})
	return m, srv, ln.Addr().String()
}

// minOpen is the smallest valid session config over the wire.
func minOpen(seed uint64) *wire.Open {
	return &wire.Open{
		Version:     wire.ProtocolVersion,
		Salt:        seed,
		DecodeSeed:  seed + 1,
		MessageBits: 8,
		MaxSlots:    64,
		RosterCap:   1,
		Seeds:       []uint64{seed},
		Taps:        []complex128{1},
	}
}

// openSession performs the Open handshake and returns the session ID
// and frame length.
func openSession(t *testing.T, conn net.Conn, seed uint64) (uint64, int) {
	t.Helper()
	if err := wire.WriteFrame(conn, minOpen(seed)); err != nil {
		t.Fatal(err)
	}
	rep, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	opened, ok := rep.(*wire.Opened)
	if !ok {
		t.Fatalf("open reply %T, want Opened", rep)
	}
	return opened.SessionID, int(opened.FrameLen)
}

// acceptGate wraps a listener and closes ready when Serve enters Accept
// for the n-th time: by then Serve has registered the listener and
// every connection it accepted before.
type acceptGate struct {
	net.Listener
	n     int32
	calls atomic.Int32
	ready chan struct{}
}

func (l *acceptGate) Accept() (net.Conn, error) {
	if l.calls.Add(1) == l.n {
		close(l.ready)
	}
	return l.Listener.Accept()
}

func TestServerShutdownIdempotent(t *testing.T) {
	leaktest.Check(t)
	m := engine.New(engine.Config{})
	defer m.Close()
	srv := engine.NewServer(m, engine.ServerConfig{})
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &acceptGate{Listener: raw, n: 2, ready: make(chan struct{})}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	// A connected client must be force-closed by shutdown. Shut down
	// only once Serve is back in Accept after taking the connection, so
	// the shutdown meets a running server, not one still starting.
	conn, err := net.Dial("tcp", raw.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	select {
	case <-ln.ready:
	case <-time.After(5 * time.Second):
		t.Fatal("serve never accepted the connection")
	}

	ctx := context.Background()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("first shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve returned %v after shutdown, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after shutdown")
	}
	// The force-closed client sees EOF (or a reset).
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.ReadFrame(conn); err == nil {
		t.Fatal("client read succeeded on a shut-down server")
	}
	// Serve after shutdown refuses and closes the listener.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln2); err == nil {
		t.Fatal("serve succeeded on a shut-down server")
	}
	if _, err := ln2.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("listener still open after refused serve: %v", err)
	}
}

func TestServerShutdownWithoutServe(t *testing.T) {
	leaktest.Check(t)
	m := engine.New(engine.Config{})
	defer m.Close()
	srv := engine.NewServer(m, engine.ServerConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown without serve: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("repeat shutdown without serve: %v", err)
	}
}

func TestMalformedFrameBudget(t *testing.T) {
	leaktest.Check(t)
	const budget = 2
	m, _, addr := startWireServer(t, engine.Config{}, engine.ServerConfig{MalformedBudget: budget})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	// A well-framed frame with a bogus type byte: malformed, framing
	// preserved. The server must answer each with a Malformed error
	// while the budget lasts, then hang up.
	hostile := make([]byte, 5)
	binary.LittleEndian.PutUint32(hostile, 1)
	hostile[4] = 0x7f
	for i := 0; i < budget; i++ {
		if _, err := conn.Write(hostile); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		rep, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		e, ok := rep.(*wire.Error)
		if !ok || e.Code != wire.CodeMalformed {
			t.Fatalf("reply %d: %+v, want Malformed error", i, rep)
		}
	}
	// One past the budget: final error, then the connection dies.
	if _, err := conn.Write(hostile); err != nil {
		t.Fatal(err)
	}
	rep, err := wire.ReadFrame(conn)
	if err == nil {
		if e, ok := rep.(*wire.Error); !ok || e.Code != wire.CodeMalformed {
			t.Fatalf("budget-exhausted reply %+v, want Malformed error", rep)
		}
		_, err = wire.ReadFrame(conn)
	}
	if err == nil {
		t.Fatal("connection survived past its malformed budget")
	}
	waitCounter(t, func() int64 { return m.Snapshot().MalformedFrames }, budget+1)
}

func TestIdleTimeoutDropsConnection(t *testing.T) {
	leaktest.Check(t)
	m, _, addr := startWireServer(t, engine.Config{},
		engine.ServerConfig{IdleTimeout: 100 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing: the server must hang up on its own.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := wire.ReadFrame(conn); err == nil {
		t.Fatal("idle connection was not dropped")
	} else if errors.Is(err, io.ErrNoProgress) {
		t.Fatalf("unexpected error class: %v", err)
	}
	waitCounter(t, func() int64 { return m.Snapshot().DeadlineDrops }, 1)
}

func TestBusyRejectedOverWire(t *testing.T) {
	leaktest.Check(t)
	m, _, addr := startWireServer(t, engine.Config{MaxSessions: 1}, engine.ServerConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	sid, _ := openSession(t, conn, 3)
	if err := wire.WriteFrame(conn, minOpen(4)); err != nil {
		t.Fatal(err)
	}
	rep, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := rep.(*wire.Error); !ok || e.Code != wire.CodeBusy {
		t.Fatalf("second open reply %+v, want Busy error", rep)
	}
	if got := m.Snapshot().BusyRejected; got != 1 {
		t.Fatalf("busy-rejected counter %d, want 1", got)
	}
	// The first session is untouched by the rejection.
	if err := wire.WriteFrame(conn, &wire.Close{SessionID: sid}); err != nil {
		t.Fatal(err)
	}
	if rep, err = wire.ReadFrame(conn); err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.(*wire.Closed); !ok {
		t.Fatalf("close reply %T, want Closed", rep)
	}
}

// v1Open hand-encodes o as a protocol-1 client sent it: the layout
// carried MinDegree, MarginThreshold, Density and WindowSoft (sent as
// zeros here) between Restarts and RosterCap.
func v1Open(o *wire.Open) []byte {
	le := binary.LittleEndian
	p := le.AppendUint16(nil, 1)
	p = le.AppendUint64(p, o.Salt)
	p = le.AppendUint64(p, o.DecodeSeed)
	p = append(p, o.CRC)
	p = le.AppendUint16(p, o.MessageBits)
	p = le.AppendUint32(p, o.MaxSlots)
	p = le.AppendUint16(p, o.Restarts)
	p = append(p, make([]byte, 2+8+8)...) // MinDegree, MarginThreshold, Density
	p = le.AppendUint32(p, o.WindowSlots)
	p = le.AppendUint32(p, o.ConfirmWindow)
	p = append(p, 0) // WindowSoft
	p = le.AppendUint32(p, o.RosterCap)
	p = le.AppendUint32(p, uint32(len(o.Seeds)))
	for _, s := range o.Seeds {
		p = le.AppendUint64(p, s)
	}
	p = le.AppendUint32(p, uint32(len(o.Taps)))
	for _, tap := range o.Taps {
		p = le.AppendUint64(p, math.Float64bits(real(tap)))
		p = le.AppendUint64(p, math.Float64bits(imag(tap)))
	}
	p = append(p, 0) // no WindowTag
	frame := le.AppendUint32(nil, uint32(1+len(p)))
	return append(append(frame, wire.TypeOpen), p...)
}

// TestRejectedOpenOverWire pins two Opens the daemon refuses with an
// Error instead of a session: a protocol-1 Open, refused by version
// (CodeProtocol) rather than as a malformed frame, and an Open that
// asks for a global and a per-tag window at once. A rejection leaves
// nothing behind: no malformed frame is counted, and with room for one
// session a valid Open on the same connection still succeeds; once it
// closes, no session or pooled resource is left in flight.
func TestRejectedOpenOverWire(t *testing.T) {
	mixed := minOpen(5)
	mixed.WindowSlots, mixed.WindowTag = 8, []uint32{0}
	mixedRaw, err := wire.Append(nil, mixed)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		raw  []byte
		code uint8
		msg  string
	}{
		{"protocol 1", v1Open(minOpen(5)), wire.CodeProtocol, fmt.Sprintf("protocol version 1, want %d", wire.ProtocolVersion)},
		{"global and per-tag window", mixedRaw, wire.CodeGeneric, "WindowSlots 8 with a per-tag WindowTag"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leaktest.Check(t)
			m, _, addr := startWireServer(t, engine.Config{MaxSessions: 1}, engine.ServerConfig{})
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))

			if _, err := conn.Write(tc.raw); err != nil {
				t.Fatal(err)
			}
			rep, err := wire.ReadFrame(conn)
			if err != nil {
				t.Fatal(err)
			}
			if e, ok := rep.(*wire.Error); !ok || e.Code != tc.code || !strings.Contains(e.Msg, tc.msg) {
				t.Fatalf("open reply %+v, want an Error with code %d naming %q", rep, tc.code, tc.msg)
			}
			if s := m.Snapshot(); s.MalformedFrames != 0 || s.SessionsOpened != 0 || s.ResourcesInFlight != 0 {
				t.Fatalf("rejected open left %d malformed frames, %d sessions opened and %d resources in flight",
					s.MalformedFrames, s.SessionsOpened, s.ResourcesInFlight)
			}

			sid, _ := openSession(t, conn, 6)
			if err := wire.WriteFrame(conn, &wire.Close{SessionID: sid}); err != nil {
				t.Fatal(err)
			}
			if rep, err = wire.ReadFrame(conn); err != nil {
				t.Fatal(err)
			}
			if _, ok := rep.(*wire.Closed); !ok {
				t.Fatalf("close reply %T, want Closed", rep)
			}
			conn.Close()
			waitCounter(t, func() int64 { return m.Snapshot().ResourcesInFlight }, 0)
			waitCounter(t, func() int64 {
				s := m.Snapshot()
				return s.SessionsOpened - s.SessionsClosed
			}, 0)
		})
	}
}

// TestOversizedOpenRejectedOverWire pins the Open size bound: an Open
// whose roster cap, slot budget or restart count would size the
// decoder's tables past the bound is answered with a generic Error
// before anything is allocated, the connection keeps serving, and a
// following valid Open on it succeeds.
func TestOversizedOpenRejectedOverWire(t *testing.T) {
	leaktest.Check(t)
	m, _, addr := startWireServer(t, engine.Config{MaxSessions: 1}, engine.ServerConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	for _, tc := range []struct {
		name string
		set  func(o *wire.Open)
	}{
		{"roster cap", func(o *wire.Open) { o.RosterCap = math.MaxUint32 }},
		{"max slots", func(o *wire.Open) { o.MaxSlots = math.MaxUint32 }},
		{"both", func(o *wire.Open) { o.RosterCap, o.MaxSlots = math.MaxUint32, math.MaxUint32 }},
		{"restarts", func(o *wire.Open) { o.RosterCap, o.Restarts = 1024, math.MaxUint16 }},
		{"message bits", func(o *wire.Open) { o.MessageBits, o.MaxSlots = math.MaxUint16, 4096 }},
	} {
		o := minOpen(5)
		tc.set(o)
		if err := wire.WriteFrame(conn, o); err != nil {
			t.Fatal(err)
		}
		rep, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if e, ok := rep.(*wire.Error); !ok || e.Code != wire.CodeGeneric || !strings.Contains(e.Msg, "open too large") {
			t.Fatalf("%s: reply %+v, want a generic Error saying the open is too large", tc.name, rep)
		}
	}
	if s := m.Snapshot(); s.SessionsOpened != 0 || s.ResourcesInFlight != 0 {
		t.Fatalf("rejected opens left %d sessions opened and %d resources in flight", s.SessionsOpened, s.ResourcesInFlight)
	}

	sid, _ := openSession(t, conn, 6)
	if err := wire.WriteFrame(conn, &wire.Close{SessionID: sid}); err != nil {
		t.Fatal(err)
	}
	rep, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.(*wire.Closed); !ok {
		t.Fatalf("close reply %T, want Closed", rep)
	}
	conn.Close()
	waitCounter(t, func() int64 { return m.Snapshot().ResourcesInFlight }, 0)
	waitCounter(t, func() int64 {
		s := m.Snapshot()
		return s.SessionsOpened - s.SessionsClosed
	}, 0)
}

// TestOversizedSlotRejectedOverWire sends a Slot of 100,000 arrivals
// to a session opened with RosterCap 1: its tag count would take the
// session's Gram past maxOpenCells, so the daemon must refuse the slot
// with a TooLarge Error before converting or growing anything — the
// exchange allocates little more than the frame itself — and keep
// serving: the session takes a normal slot with one arrival next, and
// a sibling session on another connection decodes and closes cleanly.
func TestOversizedSlotRejectedOverWire(t *testing.T) {
	leaktest.Check(t)
	m, _, addr := startWireServer(t, engine.Config{}, engine.ServerConfig{})
	conns := make([]net.Conn, 2)
	for x := range conns {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(30 * time.Second))
		conns[x] = c
	}
	sid, frameLen := openSession(t, conns[0], 21)
	sibling, _ := openSession(t, conns[1], 22)
	exchange := func(conn net.Conn, f wire.Frame) wire.Frame {
		t.Helper()
		if err := wire.WriteFrame(conn, f); err != nil {
			t.Fatal(err)
		}
		rep, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	huge := &wire.Slot{SessionID: sid, Arrivals: make([]wire.Arrival, 100_000), Obs: make([]complex128, frameLen)}
	for i := range huge.Arrivals {
		huge.Arrivals[i] = wire.Arrival{Seed: uint64(1000 + i), Tap: 1}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep := exchange(conns[0], huge)
	runtime.ReadMemStats(&after)
	if e, ok := rep.(*wire.Error); !ok || e.Code != wire.CodeTooLarge || e.SessionID != sid || !strings.Contains(e.Msg, "tag cap²") {
		t.Fatalf("oversized slot reply %+v, want a TooLarge Error for session %d naming the tag cap²", rep, sid)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 32<<20 {
		t.Fatalf("the refused slot's exchange allocated %d MiB, want at most 32", grew>>20)
	}
	huge = nil

	rep = exchange(conns[0], &wire.Slot{SessionID: sid, Arrivals: []wire.Arrival{{Seed: 23, Tap: 1}}, Obs: make([]complex128, frameLen)})
	if d, ok := rep.(*wire.Decisions); !ok || d.Slot != 1 {
		t.Fatalf("next slot reply %+v, want Decisions for slot 1", rep)
	}
	rep = exchange(conns[1], &wire.Slot{SessionID: sibling, Obs: make([]complex128, frameLen)})
	if _, ok := rep.(*wire.Decisions); !ok {
		t.Fatalf("sibling slot reply %+v, want Decisions", rep)
	}
	for x, id := range []uint64{sid, sibling} {
		if rep := exchange(conns[x], &wire.Close{SessionID: id}); !isClosed(rep) {
			t.Fatalf("close reply %+v, want Closed", rep)
		}
	}
	if s := m.Snapshot(); s.PanicsRecovered != 0 {
		t.Fatalf("%d panics recovered, want none", s.PanicsRecovered)
	}
	for _, c := range conns {
		c.Close()
	}
	waitCounter(t, func() int64 { return m.Snapshot().ResourcesInFlight }, 0)
}

// TestHangUpClosesSessionsInIDOrder pins the order of the Closed replies
// a connection gets when it half-closes with sessions open: ascending
// session ID, every time. Each of 20 connections opens four sessions,
// shuts its write side and reads replies until the server hangs up.
func TestHangUpClosesSessionsInIDOrder(t *testing.T) {
	leaktest.Check(t)
	_, _, addr := startWireServer(t, engine.Config{}, engine.ServerConfig{})
	for run := 0; run < 20; run++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		var opened []uint64
		for x := 0; x < 4; x++ {
			id, _ := openSession(t, conn, uint64(10*run+x))
			opened = append(opened, id)
		}
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		var closed []uint64
		for {
			rep, err := wire.ReadFrame(conn)
			if err != nil {
				break
			}
			c, ok := rep.(*wire.Closed)
			if !ok {
				t.Fatalf("run %d: reply %+v after hang-up, want Closed", run, rep)
			}
			closed = append(closed, c.SessionID)
		}
		conn.Close()
		slices.Sort(opened)
		if !slices.Equal(closed, opened) {
			t.Fatalf("run %d: Closed replies for sessions %v, want %v in ascending order", run, closed, opened)
		}
	}
}

// isClosed reports whether f is a Closed frame.
func isClosed(f wire.Frame) bool {
	_, ok := f.(*wire.Closed)
	return ok
}

func TestPanicIsolationOverWire(t *testing.T) {
	leaktest.Check(t)
	m, _, addr := startWireServer(t, engine.Config{}, engine.ServerConfig{})

	// Victim session panics decoding slot 2; the sibling on the same
	// daemon must finish untouched and the daemon must keep serving.
	var victim uint64
	engine.SetTestHookDecodePanic(func(sid uint64, slot int) {
		if sid == victim && slot == 2 {
			panic("test: injected decode panic")
		}
	})
	defer engine.SetTestHookDecodePanic(nil)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	victimID, frameLen := openSession(t, conn, 11)
	victim = victimID
	sibling, _ := openSession(t, conn, 12)

	feed := func(sid uint64) (wire.Frame, error) {
		if err := wire.WriteFrame(conn, &wire.Slot{SessionID: sid, Obs: make([]complex128, frameLen)}); err != nil {
			return nil, err
		}
		return wire.ReadFrame(conn)
	}
	// Slot 1 works for both.
	for _, sid := range []uint64{victimID, sibling} {
		rep, err := feed(sid)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := rep.(*wire.Decisions); !ok {
			t.Fatalf("slot 1 reply %+v, want Decisions", rep)
		}
	}
	// Victim's slot 2 blows up; the reply is a typed Panic error (the
	// decode job's event), not a dead daemon.
	if err := wire.WriteFrame(conn, &wire.Slot{SessionID: victimID, Obs: make([]complex128, frameLen)}); err != nil {
		t.Fatal(err)
	}
	rep, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := rep.(*wire.Error); !ok || e.Code != wire.CodePanic {
		t.Fatalf("victim slot 2 reply %+v, want Panic error", rep)
	}
	// Sibling still decodes on the same connection and closes cleanly.
	rep, err = feed(sibling)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.(*wire.Decisions); !ok {
		t.Fatalf("sibling post-panic reply %+v, want Decisions", rep)
	}
	if err := wire.WriteFrame(conn, &wire.Close{SessionID: sibling}); err != nil {
		t.Fatal(err)
	}
	if rep, err = wire.ReadFrame(conn); err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.(*wire.Closed); !ok {
		t.Fatalf("sibling close reply %+v, want Closed", rep)
	}

	if got := m.Snapshot().PanicsRecovered; got < 1 {
		t.Fatalf("panics-recovered counter %d, want >= 1", got)
	}
	// The poisoned session's pooled resources must be dropped, not
	// recycled: in-flight count returns to zero once everything closes.
	conn.Close()
	waitCounter(t, func() int64 { return m.Snapshot().ResourcesInFlight }, 0)
	waitCounter(t, func() int64 {
		s := m.Snapshot()
		return s.SessionsOpened - s.SessionsClosed
	}, 0)
}

// waitCounter polls a counter until it reaches want or a deadline.
func waitCounter(t *testing.T, get func() int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if got := get(); got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("counter stuck at %d, want %d", get(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
