package engine_test

import (
	"context"
	"errors"
	"fmt"
	"io"
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
// code, by role: a listener's Serve loop, a connection's reader
// (Server.handle) and its writer (writeLoop). other counts every
// remaining goroutine with an engine frame on its stack.
type engineGoroutines struct {
	listeners, readers, writers, other int
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
		case has("(*serverConn).writeLoop"):
			c.writers++
		case has("(*Server).handle"):
			c.readers++
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
// serving daemon runs one goroutine per listener plus exactly two per
// connection, its reader and its writer, however many sessions it
// decodes.
func TestGoroutinesPerConnection(t *testing.T) {
	leaktest.Check(t)
	waitGoroutines(t, engineGoroutines{}, "before the test")

	m := engine.New(engine.Config{Workers: 2})
	defer m.Close()
	none := func(when string) {
		t.Helper()
		if got := countEngineGoroutines(); got != (engineGoroutines{}) {
			t.Fatalf("%s: engine goroutines %+v, want none", when, got)
		}
	}
	ls, err := m.Open(streamCfg(7), func(engine.Event) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	none("after Open")
	feedSlots(t, ls, 3)
	none("after Feed")
	ls.Close()
	none("after Close")

	_, _, addr := startWireServer(t, engine.Config{Workers: 2}, engine.ServerConfig{})
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
	waitGoroutines(t, engineGoroutines{listeners: 1, readers: 2, writers: 2}, "serving two connections")
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

// TestSustainedOverloadOverWire feeds one session Slot frames and reads
// no reply, from a writer goroutine whose every write has a deadline.
// The connection's outbox is the daemon's only queue: once the unread
// replies fill the socket buffers and then the outbox, the session is
// shed and the reader stops reading, so the writer stalls with frames
// still unread and the daemon's heap stays bounded. When the client
// then drains its replies and hangs up, the connection tears down with
// nothing left in flight.
func TestSustainedOverloadOverWire(t *testing.T) {
	leaktest.Check(t)
	const (
		outboxFrames = 4
		maxFrames    = 4000
		heapBound    = 16 << 20
	)
	m := engine.New(engine.Config{})
	srv := engine.NewServer(m, engine.ServerConfig{OutboxFrames: outboxFrames})
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
		m.Close()
	})

	nc, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	conn := nc.(*net.UnixConn)
	defer conn.Close()
	conn.SetWriteBuffer(4096)
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	open := minOpen(31)
	open.MaxSlots = maxFrames + 1
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
	sid := opened.SessionID
	conn.SetDeadline(time.Time{})

	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	type flood struct {
		written int
		err     error
	}
	done := make(chan flood, 1)
	go func() {
		slot := &wire.Slot{SessionID: sid, Obs: make([]complex128, opened.FrameLen)}
		var f flood
		for f.written < maxFrames {
			conn.SetWriteDeadline(time.Now().Add(time.Second))
			if f.err = wire.WriteFrame(conn, slot); f.err != nil {
				break
			}
			f.written++
		}
		done <- f
	}()
	var f flood
	select {
	case f = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("the flooding writer neither finished nor stalled")
	}
	var ne net.Error
	if f.written == maxFrames || !errors.As(f.err, &ne) || !ne.Timeout() {
		t.Fatalf("writer stopped after %d of %d frames with %v, want a write timeout: the daemon never stopped reading", f.written, maxFrames, f.err)
	}

	waitCounter(t, func() int64 { return m.Snapshot().SessionsShed }, 1)
	ingested := m.Snapshot().SlotsIngested
	if ingested >= int64(f.written) {
		t.Fatalf("daemon ingested %d slots of the %d written, want fewer", ingested, f.written)
	}
	var during runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&during)
	grew := int64(during.HeapAlloc) - int64(before.HeapAlloc)
	if grew > heapBound {
		t.Fatalf("heap grew %d KiB under overload, want at most %d", grew>>10, heapBound>>10)
	}
	t.Logf("%d frames written, %d slots ingested, heap %+d KiB", f.written, ingested, grew>>10)

	// Drain: hang up the write side and read every reply until the
	// daemon, having read the rest, closes the connection.
	conn.CloseWrite()
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	shedErrors := 0
	for {
		rep, err := wire.ReadFrame(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("drain ended with %v, want the daemon's hang-up", err)
			}
			break
		}
		if e, ok := rep.(*wire.Error); ok && e.SessionID == sid && e.Code == wire.CodeShed {
			shedErrors++
		}
	}
	if shedErrors != 1 {
		t.Fatalf("%d Shed errors for the session, want 1", shedErrors)
	}
	conn.Close()
	waitCounter(t, func() int64 { return m.Snapshot().ResourcesInFlight }, 0)
	if s := m.Snapshot(); s.ActiveSessions != 0 || s.SessionsShed != 1 {
		t.Fatalf("after teardown: %d sessions active, %d shed; want 0 and 1", s.ActiveSessions, s.SessionsShed)
	}
}

// TestPipelinedClientNotShed writes slots back to back from one
// goroutine while another reads every reply as fast as it arrives, at
// the default outbox. The daemon decodes faster than its writer
// goroutine drains, so the outbox fills; a client that reads every
// reply is not a slow reader, and its session must get a Decisions
// reply for every slot, in order, without being shed.
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
					t.Fatalf("reply %d is %+v, want Decisions (shed counter %d)", n, rep, m.Snapshot().SessionsShed)
				}
				if d.Slot != uint32(n) {
					t.Fatalf("reply %d is for slot %d", n, d.Slot)
				}
			}
			if err := <-written; err != nil {
				t.Fatal(err)
			}
			if s := m.Snapshot(); s.SessionsShed != 0 || s.SlotsIngested != slots {
				t.Fatalf("%d sessions shed, %d slots ingested; want 0 and %d", s.SessionsShed, s.SlotsIngested, slots)
			}
		})
	}
}
