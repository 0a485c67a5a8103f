package engine_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/leaktest"
	"repro/internal/engine/wire"
)

// engineGoroutines counts the live goroutines running package engine's
// code, by role: a listener's Serve loop and a connection's loop
// (Server.handle). other counts every remaining goroutine with an
// engine frame on its stack.
type engineGoroutines struct {
	listeners, conns, other int
}

func countEngineGoroutines() engineGoroutines {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	// Function lines of a goroutine dump start at column 0 with the
	// qualified name and its argument list; "created by" lines do not
	// count as frames.
	const pkg = "repro/internal/engine."
	var c engineGoroutines
	for _, g := range strings.Split(string(buf), "\n\n") {
		has := func(fn string) bool {
			return strings.Contains(g, "\n"+pkg+fn+"(")
		}
		switch {
		case has("(*Server).handle"):
			c.conns++
		case has("(*Server).Serve"):
			c.listeners++
		case strings.Contains(g, "\n"+pkg):
			c.other++
		}
	}
	return c
}

// waitGoroutines polls until the engine goroutines are exactly want.
func waitGoroutines(t *testing.T, want engineGoroutines, when string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := countEngineGoroutines()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: engine goroutines %+v, want %+v", when, got, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGoroutinesPerConnection pins where streaming decode runs. Open,
// Feed and Close run on their caller's goroutine and start none, and a
// serving daemon runs one goroutine per listener plus exactly one per
// connection, which reads, decodes and writes, however many sessions it
// decodes.
func TestGoroutinesPerConnection(t *testing.T) {
	leaktest.Check(t)
	waitGoroutines(t, engineGoroutines{}, "before the test")

	m := engine.New(engine.Config{})
	none := func(when string) {
		t.Helper()
		if got := countEngineGoroutines(); got != (engineGoroutines{}) {
			t.Fatalf("%s: engine goroutines %+v, want none", when, got)
		}
	}
	ls, err := m.Open(streamCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	none("after Open")
	feedSlots(t, ls, 3)
	none("after Feed")
	ls.Close()
	none("after Close")

	_, _, addr := startWireServer(t, engine.Config{}, engine.ServerConfig{})
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		// Two sessions per connection, each through one slot.
		for s := uint64(0); s < 2; s++ {
			sid, frameLen := openSession(t, conn, 40+2*uint64(i)+s)
			if err := wire.WriteFrame(conn, &wire.Slot{SessionID: sid, Obs: make([]complex128, frameLen)}); err != nil {
				t.Fatal(err)
			}
			if rep, err := wire.ReadFrame(conn); err != nil {
				t.Fatal(err)
			} else if _, ok := rep.(*wire.Decisions); !ok {
				t.Fatalf("slot reply %+v, want Decisions", rep)
			}
		}
	}
	waitGoroutines(t, engineGoroutines{listeners: 1, conns: 2}, "serving two connections")
}

// smallBuffers shrinks each accepted connection's send buffer, so a
// client that stops reading fills it within a few dozen replies.
type smallBuffers struct{ net.Listener }

func (l smallBuffers) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if uc, ok := nc.(*net.UnixConn); ok {
		uc.SetWriteBuffer(4096)
	}
	return nc, err
}

// floodingClient is a connection to a daemon on a unix socket with
// small buffers (see smallBuffers), one session open on it, that
// writes Slot frames and reads no reply.
type floodingClient struct {
	conn     *net.UnixConn
	sid      uint64
	frameLen uint32
}

// startFlooder serves m on a fresh unix socket with small buffers and
// opens one session on a new client connection.
func startFlooder(t *testing.T, m *engine.SessionManager, scfg engine.ServerConfig, maxSlots uint32) (*floodingClient, string) {
	t.Helper()
	srv := engine.NewServer(m, scfg)
	// A unix socket: its send buffer alone bounds what one side can
	// have queued to the other, with no window to renegotiate.
	sock := filepath.Join(t.TempDir(), "buzzd.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(smallBuffers{ln})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("cleanup shutdown: %v", err)
		}
	})
	nc, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	conn := nc.(*net.UnixConn)
	t.Cleanup(func() { conn.Close() })
	conn.SetWriteBuffer(4096)
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	open := minOpen(31)
	open.MaxSlots = maxSlots
	if err := wire.WriteFrame(conn, open); err != nil {
		t.Fatal(err)
	}
	rep, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	opened, ok := rep.(*wire.Opened)
	if !ok {
		t.Fatalf("open reply %+v, want Opened", rep)
	}
	conn.SetDeadline(time.Time{})
	return &floodingClient{conn: conn, sid: opened.SessionID, frameLen: opened.FrameLen}, sock
}

// flood writes up to n Slot frames, each under a one-second write
// deadline, and returns how many it wrote and the error that stopped
// it.
func (c *floodingClient) flood(n int) (int, error) {
	slot := &wire.Slot{SessionID: c.sid, Obs: make([]complex128, c.frameLen)}
	for written := 0; written < n; written++ {
		c.conn.SetWriteDeadline(time.Now().Add(time.Second))
		if err := wire.WriteFrame(c.conn, slot); err != nil {
			return written, err
		}
	}
	return n, nil
}

// TestUnreadRepliesOverWire feeds one session Slot frames and reads no
// reply, with no write timeout. The daemon writes each reply before it
// reads the next frame, so once the unread replies fill the socket its
// write blocks, it stops reading, and the client's writes back up and
// time out: the stall stays on this connection, the daemon queues
// nothing, and its heap stays bounded. When the client hangs up, the
// blocked write fails and the connection tears down with nothing left
// in flight.
func TestUnreadRepliesOverWire(t *testing.T) {
	leaktest.Check(t)
	const (
		maxFrames = 4000
		heapBound = 16 << 20
	)
	m := engine.New(engine.Config{})
	c, _ := startFlooder(t, m, engine.ServerConfig{}, maxFrames+1)

	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	written, err := c.flood(maxFrames)
	var ne net.Error
	if written == maxFrames || !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("writer stopped after %d of %d frames with %v, want a write timeout: the daemon never stopped reading", written, maxFrames, err)
	}
	ingested := m.Snapshot().SlotsIngested
	if ingested >= int64(written) {
		t.Fatalf("daemon ingested %d slots of the %d written, want fewer", ingested, written)
	}
	var during runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&during)
	grew := int64(during.HeapAlloc) - int64(before.HeapAlloc)
	if grew > heapBound {
		t.Fatalf("heap grew %d KiB under overload, want at most %d", grew>>10, heapBound>>10)
	}
	t.Logf("%d frames written, %d slots ingested, heap %+d KiB", written, ingested, grew>>10)

	c.conn.Close()
	waitCounter(t, func() int64 { return m.Snapshot().ResourcesInFlight }, 0)
	waitCounter(t, func() int64 { return m.Snapshot().ActiveSessions }, 0)
	if s := m.Snapshot(); s.DeadlineDrops != 0 || s.SessionsClosed != 1 {
		t.Fatalf("after hang-up: %d deadline drops, %d sessions closed; want 0 and 1", s.DeadlineDrops, s.SessionsClosed)
	}
}

// TestWriteTimeoutOverWire floods one session like
// TestUnreadRepliesOverWire, with a write timeout set and a client that
// stays connected. The daemon's blocked reply write trips the timeout
// within a few timeouts: the connection is dropped as a deadline drop,
// its session closes, and its admission slot frees up for a new Open
// under MaxSessions 1.
func TestWriteTimeoutOverWire(t *testing.T) {
	leaktest.Check(t)
	const writeTimeout = 200 * time.Millisecond
	m := engine.New(engine.Config{MaxSessions: 1})
	c, sock := startFlooder(t, m, engine.ServerConfig{WriteTimeout: writeTimeout}, 4001)

	start := time.Now()
	written, err := c.flood(4000)
	if err == nil {
		t.Fatalf("all %d frames written: the daemon never stopped reading", written)
	}
	waitCounter(t, func() int64 { return m.Snapshot().DeadlineDrops }, 1)
	if took := time.Since(start); took > 5*writeTimeout {
		t.Fatalf("the daemon dropped the connection %v after the flood began, want within %v", took, 5*writeTimeout)
	}
	waitCounter(t, func() int64 { return m.Snapshot().ActiveSessions }, 0)
	waitCounter(t, func() int64 { return m.Snapshot().ResourcesInFlight }, 0)
	t.Logf("%d frames written, %d slots ingested, dropped after %v", written, m.Snapshot().SlotsIngested, time.Since(start))

	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	sid, _ := openSession(t, conn, 32)
	if err := wire.WriteFrame(conn, &wire.Close{SessionID: sid}); err != nil {
		t.Fatal(err)
	}
	if rep, err := wire.ReadFrame(conn); err != nil || !isClosed(rep) {
		t.Fatalf("close reply %+v, %v; want Closed", rep, err)
	}
	if got := m.Snapshot().DeadlineDrops; got != 1 {
		t.Fatalf("%d deadline drops, want 1", got)
	}
}

// TestPipelinedClientNotShed writes slots back to back from one
// goroutine while another reads every reply as fast as it arrives. A
// client that reads every reply is not a slow reader: its session must
// get a Decisions reply for every slot, in order, and lose none.
func TestPipelinedClientNotShed(t *testing.T) {
	const slots = 10000
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			leaktest.Check(t)
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			m, _, addr := startWireServer(t, engine.Config{}, engine.ServerConfig{})
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(60 * time.Second))
			open := minOpen(53)
			open.MaxSlots = slots
			if err := wire.WriteFrame(conn, open); err != nil {
				t.Fatal(err)
			}
			rep, err := wire.ReadFrame(conn)
			if err != nil {
				t.Fatal(err)
			}
			opened, ok := rep.(*wire.Opened)
			if !ok {
				t.Fatalf("open reply %+v, want Opened", rep)
			}

			written := make(chan error, 1)
			go func() {
				slot := &wire.Slot{SessionID: opened.SessionID, Obs: make([]complex128, opened.FrameLen)}
				for n := 0; n < slots; n++ {
					if err := wire.WriteFrame(conn, slot); err != nil {
						written <- fmt.Errorf("slot %d: %w", n+1, err)
						return
					}
				}
				written <- nil
			}()
			for n := 1; n <= slots; n++ {
				rep, err := wire.ReadFrame(conn)
				if err != nil {
					t.Fatalf("reply %d: %v", n, err)
				}
				d, ok := rep.(*wire.Decisions)
				if !ok {
					t.Fatalf("reply %d is %+v, want Decisions", n, rep)
				}
				if d.Slot != uint32(n) {
					t.Fatalf("reply %d is for slot %d", n, d.Slot)
				}
			}
			if err := <-written; err != nil {
				t.Fatal(err)
			}
			if s := m.Snapshot(); s.SlotsIngested != slots || s.DeadlineDrops != 0 || s.ActiveSessions != 1 {
				t.Fatalf("%d slots ingested, %d deadline drops, %d sessions active; want %d, 0 and 1", s.SlotsIngested, s.DeadlineDrops, s.ActiveSessions, slots)
			}
		})
	}
}
