package faults

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// memConn is a minimal in-memory net.Conn sink that records every Write
// and whether Close was called.
type memConn struct {
	mu     sync.Mutex
	writes [][]byte
	closed bool
}

func (m *memConn) Write(p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, errors.New("memConn: closed")
	}
	m.writes = append(m.writes, append([]byte(nil), p...))
	return len(p), nil
}

func (m *memConn) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

func (m *memConn) all() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []byte
	for _, w := range m.writes {
		out = append(out, w...)
	}
	return out
}

func (m *memConn) Read([]byte) (int, error)         { return 0, errors.New("memConn: no reads") }
func (m *memConn) LocalAddr() net.Addr              { return nil }
func (m *memConn) RemoteAddr() net.Addr             { return nil }
func (m *memConn) SetDeadline(time.Time) error      { return nil }
func (m *memConn) SetReadDeadline(time.Time) error  { return nil }
func (m *memConn) SetWriteDeadline(time.Time) error { return nil }

// frame builds a wire-shaped frame: 4-byte LE length over body.
func frame(body ...byte) []byte {
	out := make([]byte, 4+len(body))
	binary.LittleEndian.PutUint32(out, uint32(len(body)))
	copy(out[4:], body)
	return out
}

func TestActionDeterministicAndZeroPlan(t *testing.T) {
	var zero Plan
	for f := uint64(0); f < 100; f++ {
		if got := zero.Action(0, f); got != Pass {
			t.Fatalf("zero plan injected %v at frame %d", got, f)
		}
	}

	a := &Plan{Seed: 42, Deny: 7}
	b := &Plan{Seed: 42, Deny: 7}
	diverged := false
	faulted := 0
	for c := uint64(0); c < 4; c++ {
		for f := uint64(0); f < 500; f++ {
			ka, kb := a.Action(c, f), b.Action(c, f)
			if ka != kb {
				t.Fatalf("same-seed plans diverged at (%d,%d): %v vs %v", c, f, ka, kb)
			}
			if ka != Pass {
				faulted++
			}
		}
	}
	if faulted == 0 {
		t.Fatal("Deny=7 plan injected nothing over 2000 frames")
	}
	other := &Plan{Seed: 43, Deny: 7}
	for c := uint64(0); c < 4 && !diverged; c++ {
		for f := uint64(0); f < 500; f++ {
			if a.Action(c, f) != other.Action(c, f) {
				diverged = true
				break
			}
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestActionWeights(t *testing.T) {
	p := &Plan{Seed: 9, Deny: 3}
	p.Weights[Drop] = 1 // only drops allowed
	for c := uint64(0); c < 8; c++ {
		for f := uint64(0); f < 300; f++ {
			if k := p.Action(c, f); k != Pass && k != Drop {
				t.Fatalf("weighted plan drew %v with only Drop weighted", k)
			}
		}
	}
	// Unweighted plans should eventually draw every injectable kind.
	u := &Plan{Seed: 5, Deny: 2}
	var seen [NumKinds]bool
	for c := uint64(0); c < 32; c++ {
		for f := uint64(0); f < 400; f++ {
			seen[u.Action(c, f)] = true
		}
	}
	for k := int(Drop); k < NumKinds; k++ {
		if !seen[k] {
			t.Errorf("unweighted plan never drew %v", Kind(k))
		}
	}
}

func TestConnPassThroughSplitWrites(t *testing.T) {
	sink := &memConn{}
	c := WrapConn(sink, &Plan{}, 0) // zero plan: everything passes
	f1 := frame(1, 2, 3)
	f2 := frame(9)
	stream := append(append([]byte(nil), f1...), f2...)
	// Dribble the two frames through byte-by-byte.
	for i := range stream {
		n, err := c.Write(stream[i : i+1])
		if err != nil || n != 1 {
			t.Fatalf("write byte %d: n=%d err=%v", i, n, err)
		}
	}
	got := sink.all()
	if !bytes.Equal(got, stream) {
		t.Fatalf("pass-through mismatch: got %x want %x", got, stream)
	}
	// Frames must come out whole (forwarded per frame, not per byte).
	sink.mu.Lock()
	nw := len(sink.writes)
	sink.mu.Unlock()
	if nw != 2 {
		t.Fatalf("expected 2 frame-sized writes, got %d", nw)
	}
}

func onlyKind(k Kind) *Plan {
	p := &Plan{Seed: 1, Deny: 1} // every frame faults
	p.Weights[k] = 1
	return p
}

func TestConnDrop(t *testing.T) {
	sink := &memConn{}
	c := WrapConn(sink, onlyKind(Drop), 0)
	if _, err := c.Write(frame(7, 7)); err != nil {
		t.Fatal(err)
	}
	if got := sink.all(); len(got) != 0 {
		t.Fatalf("dropped frame reached the sink: %x", got)
	}
	if n := c.plan.Counts[Drop].Load(); n != 1 {
		t.Fatalf("Drop count = %d, want 1", n)
	}
}

func TestConnDup(t *testing.T) {
	sink := &memConn{}
	c := WrapConn(sink, onlyKind(Dup), 0)
	f := frame(5, 6)
	if _, err := c.Write(f); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), f...), f...)
	if got := sink.all(); !bytes.Equal(got, want) {
		t.Fatalf("dup mismatch: got %x want %x", got, want)
	}
}

func TestConnCorruptPreservesFraming(t *testing.T) {
	sink := &memConn{}
	c := WrapConn(sink, onlyKind(Corrupt), 0)
	f := frame(1, 2, 3, 4, 5)
	if _, err := c.Write(f); err != nil {
		t.Fatal(err)
	}
	got := sink.all()
	if len(got) != len(f) {
		t.Fatalf("corrupt changed frame length: %d vs %d", len(got), len(f))
	}
	if !bytes.Equal(got[:4], f[:4]) {
		t.Fatalf("corrupt touched the length prefix: %x vs %x", got[:4], f[:4])
	}
	diff := 0
	for i := 4; i < len(f); i++ {
		if got[i] != f[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corrupt flipped %d bytes, want exactly 1", diff)
	}
}

func TestConnTruncateAndKillClose(t *testing.T) {
	for _, k := range []Kind{Truncate, Kill} {
		sink := &memConn{}
		c := WrapConn(sink, onlyKind(k), 0)
		f := frame(1, 2, 3, 4)
		if _, err := c.Write(f); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		sink.mu.Lock()
		closed := sink.closed
		sink.mu.Unlock()
		if !closed {
			t.Fatalf("%v did not close the conn", k)
		}
		if !c.Killed() {
			t.Fatalf("%v: Killed() = false", k)
		}
		got := sink.all()
		if k == Kill && len(got) != 0 {
			t.Fatalf("kill forwarded bytes: %x", got)
		}
		if k == Truncate && (len(got) == 0 || len(got) >= len(f)) {
			t.Fatalf("truncate forwarded %d bytes of %d, want a strict nonempty prefix", len(got), len(f))
		}
		if k == Truncate && !bytes.Equal(got, f[:len(got)]) {
			t.Fatalf("truncate forwarded non-prefix bytes: %x", got)
		}
		// Subsequent writes fail: the conn is dead.
		if _, err := c.Write(frame(9)); err == nil {
			t.Fatalf("%v: write after close succeeded", k)
		}
	}
}

func TestConnSameSeedSameBytes(t *testing.T) {
	run := func() ([]byte, [NumKinds]int64) {
		sink := &memConn{}
		p := &Plan{Seed: 77, Deny: 3}
		p.Weights[Drop] = 1
		p.Weights[Dup] = 1
		p.Weights[Corrupt] = 2
		c := WrapConn(sink, p, 5)
		for i := 0; i < 64; i++ {
			if _, err := c.Write(frame(byte(i), byte(i>>1), byte(i^0x5a))); err != nil {
				t.Fatal(err)
			}
		}
		return sink.all(), p.CountsSnapshot()
	}
	b1, c1 := run()
	b2, c2 := run()
	if !bytes.Equal(b1, b2) {
		t.Fatal("same seed produced different byte streams")
	}
	if c1 != c2 {
		t.Fatalf("same seed produced different fault counts: %v vs %v", c1, c2)
	}
	if c1[Drop]+c1[Dup]+c1[Corrupt] == 0 {
		t.Fatal("no faults injected over 64 frames at Deny=3")
	}
}

func TestListenerAssignsDistinctIDs(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	p := &Plan{Seed: 1, Deny: 1000000}
	l := &Listener{Listener: inner, Plan: p, Base: 100}
	ids := make(chan uint64, 2)
	go func() {
		for i := 0; i < 2; i++ {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			fc := nc.(*Conn)
			ids <- fc.id
			nc.Close()
		}
	}()
	for i := 0; i < 2; i++ {
		d, err := net.Dial("tcp", inner.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		d.Close()
	}
	got := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		select {
		case id := <-ids:
			if id < 100 {
				t.Fatalf("accepted conn id %d below Base 100", id)
			}
			got[id] = true
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for accepts")
		}
	}
	if len(got) != 2 {
		t.Fatalf("accepted conns shared an id: %v", got)
	}
}
