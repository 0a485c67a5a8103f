// Package faults is a seeded, deterministic fault-injection layer for
// the wire protocol: a net.Conn wrapper that understands the
// length-prefixed framing and can drop, delay, duplicate, truncate or
// bit-corrupt whole frames, stall a peer past its deadlines, or kill
// the connection at chosen frame (= slot) boundaries. Every decision is
// a pure function of (plan seed, connection index, frame index) through
// prng.Mix3, so a chaos run replays byte-for-byte: same seed, same
// faults, same outcome.
//
// The wrapper injects on the write side only — wrap the client's conn
// to perturb client→server traffic, wrap the server's accepted conns
// (via Listener) to perturb server→client traffic — so each direction's
// schedule is an independent, addressable stream. Reads pass through
// untouched; whatever mangled bytes the peer was sent arrive exactly as
// sent.
package faults

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/prng"
)

// Kind is one injected fault's flavor.
type Kind uint8

const (
	// Pass means no fault: the frame is forwarded untouched.
	Pass Kind = iota
	// Drop swallows the frame; the peer never sees it and somebody's
	// deadline eventually notices.
	Drop
	// Delay sleeps Plan.Delay before forwarding — long enough to jitter
	// timing, short enough to trip nothing.
	Delay
	// Dup forwards the frame twice; the streams desynchronize and the
	// protocol layer has to notice.
	Dup
	// Truncate forwards a strict prefix of the frame and kills the
	// connection — framing is lost mid-frame.
	Truncate
	// Corrupt XORs one byte inside the frame's type/payload region
	// (never the length prefix, so framing survives and the codec's
	// validation gets its chance).
	Corrupt
	// Stall sleeps Plan.Stall before forwarding — calibrated to blow
	// the peer's (or our own) deadlines.
	Stall
	// Kill closes the connection instead of forwarding the frame: a
	// crash at a slot boundary.
	Kill
)

var kindNames = [...]string{"pass", "drop", "delay", "dup", "truncate", "corrupt", "stall", "kill"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// NumKinds is the count of distinct Kind values (including Pass).
const NumKinds = int(Kill) + 1

// Plan is a seeded fault schedule. The zero Plan injects nothing.
type Plan struct {
	// Seed addresses every decision; two Plans with the same seed and
	// weights make identical calls.
	Seed uint64
	// Deny is the per-frame fault denominator: frame (c, f) faults when
	// Mix3(seed, c, f) % Deny == 0. Deny 0 or negative injects nothing.
	// Keep Deny well above the longest session's frame count, or a
	// reconnecting client can fault faster than it makes progress.
	Deny int
	// Weights biases the fault kind drawn once a frame faults, indexed
	// by Kind (Weights[Pass] is ignored). All-zero weights mean every
	// injectable kind is equally likely.
	Weights [NumKinds]int
	// Delay is the Delay fault's sleep; 0 = 1ms.
	Delay time.Duration
	// Stall is the Stall fault's sleep; it must comfortably exceed the
	// deadlines under test. 0 = 1s.
	Stall time.Duration

	// Counts tallies injected faults by kind (atomically; Pass not
	// counted). Read with CountsSnapshot.
	Counts [NumKinds]atomic.Int64
}

func (p *Plan) delay() time.Duration {
	if p.Delay > 0 {
		return p.Delay
	}
	return time.Millisecond
}

func (p *Plan) stall() time.Duration {
	if p.Stall > 0 {
		return p.Stall
	}
	return time.Second
}

// Action decides the fault for frame index f of connection index c.
// Deterministic: a pure function of (Seed, c, f) and the weights.
func (p *Plan) Action(c, f uint64) Kind {
	if p.Deny <= 0 {
		return Pass
	}
	h := prng.Mix3(p.Seed, c, f)
	if h%uint64(p.Deny) != 0 {
		return Pass
	}
	total := 0
	for k := int(Drop); k < NumKinds; k++ {
		w := p.Weights[k]
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		// Unweighted: uniform over the injectable kinds.
		return Kind(int(Drop) + int(prng.Mix64(h)%uint64(NumKinds-1)))
	}
	pick := int(prng.Mix64(h) % uint64(total))
	for k := int(Drop); k < NumKinds; k++ {
		w := p.Weights[k]
		if w <= 0 {
			continue
		}
		if pick < w {
			return Kind(k)
		}
		pick -= w
	}
	return Pass // unreachable
}

// CountsSnapshot copies the per-kind injected-fault tallies.
func (p *Plan) CountsSnapshot() [NumKinds]int64 {
	var out [NumKinds]int64
	for i := range out {
		out[i] = p.Counts[i].Load()
	}
	return out
}

// Conn wraps a net.Conn, injecting the Plan's faults into the frames
// written through it. Reads pass through. Safe for the usual net.Conn
// discipline (one writer goroutine, one reader goroutine).
type Conn struct {
	net.Conn
	plan *Plan
	id   uint64

	mu     sync.Mutex // guards wbuf/frame/werr (single writer, but Close may race)
	wbuf   []byte
	frame  uint64
	werr   error
	killed atomic.Bool
}

// WrapConn wraps nc; id is the connection's index in the Plan's
// address space (the caller keeps it unique and deterministic —
// e.g. a dial or accept counter).
func WrapConn(nc net.Conn, plan *Plan, id uint64) *Conn {
	return &Conn{Conn: nc, plan: plan, id: id}
}

// Write accumulates p into whole frames and forwards each with its
// scheduled fault applied. Bytes are always reported consumed: a
// dropped frame looks, to the caller, like a successful send.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.werr != nil {
		return 0, c.werr
	}
	c.wbuf = append(c.wbuf, p...)
	for {
		if len(c.wbuf) < 4 {
			return len(p), nil
		}
		n := binary.LittleEndian.Uint32(c.wbuf[:4])
		total := 4 + int(n)
		if len(c.wbuf) < total {
			return len(p), nil
		}
		fb := c.wbuf[:total]
		if err := c.forward(fb); err != nil {
			c.werr = err
			return 0, err
		}
		rest := copy(c.wbuf, c.wbuf[total:])
		c.wbuf = c.wbuf[:rest]
	}
}

// forward applies one frame's scheduled fault. Called with mu held.
func (c *Conn) forward(fb []byte) error {
	kind := c.plan.Action(c.id, c.frame)
	c.frame++
	if kind != Pass {
		c.plan.Counts[kind].Add(1)
	}
	switch kind {
	case Pass:
		_, err := c.Conn.Write(fb)
		return err
	case Drop:
		return nil
	case Delay:
		time.Sleep(c.plan.delay())
		_, err := c.Conn.Write(fb)
		return err
	case Dup:
		if _, err := c.Conn.Write(fb); err != nil {
			return err
		}
		_, err := c.Conn.Write(fb)
		return err
	case Truncate:
		// A strict prefix that always cuts inside the frame body, then
		// the wire goes dead: the peer sees an unexpected EOF.
		cut := 1 + int(prng.Mix3(c.plan.Seed, c.id, ^c.frame)%uint64(len(fb)-1))
		if _, err := c.Conn.Write(fb[:cut]); err != nil {
			return err
		}
		c.kill()
		return nil
	case Corrupt:
		mut := append([]byte(nil), fb...)
		// Never touch the 4-byte length prefix: framing must survive so
		// the corruption reaches the codec's validation, not the
		// transport's.
		off := 4 + int(prng.Mix3(c.plan.Seed, c.id, ^c.frame)%uint64(len(fb)-4))
		bit := 1 << (prng.Mix3(c.plan.Seed, ^c.id, c.frame) % 8)
		mut[off] ^= byte(bit)
		_, err := c.Conn.Write(mut)
		return err
	case Stall:
		time.Sleep(c.plan.stall())
		_, err := c.Conn.Write(fb)
		return err
	case Kill:
		c.kill()
		return nil
	}
	return nil
}

// kill closes the wrapped conn and latches the write error so every
// later Write fails, exactly like a real dead socket. The killing
// frame's own Write still reports success — the fault is only visible
// to the peer (and to the next write). Called with mu held.
func (c *Conn) kill() {
	c.killed.Store(true)
	c.werr = net.ErrClosed
	c.Conn.Close()
}

// Killed reports whether the injector closed this connection itself
// (Truncate or Kill).
func (c *Conn) Killed() bool { return c.killed.Load() }

// Listener wraps a net.Listener so every accepted connection carries
// the Plan's faults on its writes (the server→client direction).
// Accepted connections get successive ids starting at Base.
type Listener struct {
	net.Listener
	Plan *Plan
	// Base offsets accepted connection ids so the two directions of a
	// chaos run draw from disjoint schedule streams even when they
	// share a Plan.
	Base uint64

	next atomic.Uint64
}

// Accept wraps the next accepted conn in the Plan's fault schedule.
func (l *Listener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return WrapConn(nc, l.Plan, l.Base+l.next.Add(1)-1), nil
}
