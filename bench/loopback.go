package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/bits"
	"repro/internal/engine/replay"
	"repro/internal/engine/wire"
	"repro/internal/scenario"
)

// daemon is one buzzd process, started with its default flags apart from
// the addresses: the unix socket it serves and no TCP listener.
type daemon struct {
	cmd  *exec.Cmd
	done chan struct{} // closed when its standard output reaches EOF
	log  strings.Builder
}

func startDaemon(bin, sock string) (*daemon, error) {
	cmd := exec.Command(bin, "-listen", "", "-unix", sock)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start buzzd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	ready := make(chan error, 1)
	go func() {
		defer close(d.done)
		br := bufio.NewReader(out)
		served := false
		for {
			line, err := br.ReadString('\n')
			d.log.WriteString(line)
			if !served && strings.Contains(line, "serving unix") {
				served = true
				ready <- nil
			}
			if err != nil {
				if !served {
					ready <- fmt.Errorf("buzzd ended before serving: %q", d.log.String())
				}
				return
			}
		}
	}()
	select {
	case err := <-ready:
		if err != nil {
			cmd.Wait()
			return nil, err
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		<-d.done
		cmd.Wait()
		return nil, fmt.Errorf("buzzd did not serve within 30s")
	}
	return d, nil
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// stop sends SIGTERM and waits for the daemon to drain and exit; a
// non-zero exit is an error.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	<-d.done
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("buzzd exit: %v (output %q)", err, d.log.String())
	}
	return nil
}

// pinToOneCPU restricts every thread of this process — and so buzzd,
// which inherits the mask — to the last CPU the process may run on, so
// the host probe runs on the CPU that does all the loopback's work.
// Unpinned, the daemon's vCPU goes unmeasured, and normalized runs of
// one seed ranged 12% rather than 7%.
func pinToOneCPU() error {
	var mask [16]uint64 // room for 1024 CPUs
	size := unsafe.Sizeof(mask)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask))); e != 0 {
		return fmt.Errorf("sched_getaffinity: %w", e)
	}
	var one [16]uint64
	for cpu := len(mask)*64 - 1; cpu >= 0; cpu-- {
		if mask[cpu/64]&(1<<(cpu%64)) != 0 {
			one[cpu/64] = 1 << (cpu % 64)
			break
		}
	}
	// Threads started meanwhile inherit their creator's mask, so a
	// second pass catches any the first one missed.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), size, uintptr(unsafe.Pointer(&one))); e != 0 && e != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity: %w", e)
			}
		}
	}
	return nil
}

// rttConn wraps a load-generator connection. It times each Slot→Decisions
// exchange from the start of the Slot write to the first reply byte,
// counts both frames' bytes, and — with a tracer — records the exchange
// as a span split into the write, the wait for the first reply byte and
// the read of the rest. Open, Close and Stats exchanges are not timed:
// only a frame whose type byte is Slot arms the clock. Frames are
// written whole (wire.WriteFrame makes one Write call per frame).
type rttConn struct {
	net.Conn
	tr *tracer

	rttMs                 []float64
	slotFrames            int64
	slotBytes, replyBytes int64

	t0        time.Time
	inReply   bool // a Slot was written and its reply is not fully read
	firstByte bool // the reply's first byte has not arrived yet
	hdr       [5]byte
	got, want int // reply bytes read so far and in total (0 = header unread)

	// keep, when positive, captures that many more Slot frames and their
	// replies for the codec timing.
	keep     int
	captured [][]byte
	reply    []byte
}

func (c *rttConn) Write(b []byte) (int, error) {
	slot := len(b) > 4 && b[4] == wire.TypeSlot
	if slot {
		if c.tr != nil {
			c.tr.begin(spanExchange)
			c.tr.begin(spanWireWrite)
		}
		c.slotFrames++
		c.slotBytes += int64(len(b))
		if c.keep > 0 {
			c.captured = append(c.captured, append([]byte(nil), b...))
		}
		c.inReply, c.firstByte, c.got, c.want = true, true, 0, 0
		c.t0 = time.Now()
	}
	n, err := c.Conn.Write(b)
	if slot && c.tr != nil {
		c.tr.end()
		c.tr.begin(spanWireWait)
	}
	return n, err
}

func (c *rttConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n == 0 || !c.inReply {
		return n, err
	}
	if c.firstByte {
		c.rttMs = append(c.rttMs, float64(time.Since(c.t0))/1e6)
		c.firstByte = false
		if c.tr != nil {
			c.tr.end()
			c.tr.begin(spanWireRead)
		}
	}
	c.replyBytes += int64(n)
	for _, b := range p[:n] {
		if c.got < len(c.hdr) {
			c.hdr[c.got] = b
		}
		c.got++
		if c.got == len(c.hdr) {
			c.want = 4 + int(binary.LittleEndian.Uint32(c.hdr[:4]))
		}
	}
	if c.keep > 0 {
		c.reply = append(c.reply, p[:n]...)
	}
	if c.want > 0 && c.got >= c.want {
		c.inReply = false
		if c.tr != nil {
			c.tr.end()
			c.tr.end()
		}
		if c.keep > 0 {
			c.captured = append(c.captured, c.reply)
			c.reply = nil
			c.keep--
		}
	}
	return n, err
}

// loopSession is buzzd plus the two closed-loop load-generator
// connections. Connection c replays units c, c+2, … of dock-door.json.
type loopSession struct {
	o      options
	units  int
	spec   scenario.Spec // the file's spec, at its own seed
	base   uint64        // the unit-0 seed
	crc    bits.CRCKind
	d      *daemon
	conns  [2]*rttConn
	trials []trialOutcome
	failed []bool
	rttMs  []float64 // untraced exchanges
}

func openLoopback(_ *workload, o options, units int) (session, error) {
	spec, err := scenario.Load(filepath.Join(o.root, "examples", "scenarios", "dock-door.json"))
	if err != nil {
		return nil, err
	}
	crc, err := spec.CRCKind()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	if err := pinToOneCPU(); err != nil {
		return nil, err
	}
	sock := filepath.Join(o.work, fmt.Sprintf("buzzd-%d.sock", os.Getpid()))
	d, err := startDaemon(o.buzzd, sock)
	if err != nil {
		return nil, err
	}
	s := &loopSession{o: o, units: units, spec: spec, base: spec.Seed + o.seed*seedStride, crc: crc, d: d}
	for c := range s.conns {
		nc, err := net.Dial("unix", sock)
		if err != nil {
			s.close(nil)
			return nil, err
		}
		s.conns[c] = &rttConn{Conn: nc}
	}
	for c, conn := range s.conns {
		warm := spec
		warm.Seed += warmupIndex
		if _, err := replay.RunTrial(conn, warm, c); err != nil {
			s.close(nil)
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		conn.rttMs = conn.rttMs[:0]
	}
	return s, nil
}

// unit returns the spec and trial index unit j replays: trial
// j mod Trials of the spec at seed base + j div Trials. The roster is
// drawn from the spec's seed, so a run covers hundreds of rosters, as the
// sim workloads do, rather than replaying one roster's trials: with one
// roster per run, a run's slots per trial and its ops per second were
// set by that single draw (37 against 69 slots per trial at seeds 0 and 7).
func (s *loopSession) unit(j int) (scenario.Spec, int) {
	spec := s.spec
	spec.Seed = s.base + uint64(j/s.spec.Trials)
	return spec, j % s.spec.Trials
}

// chunkTrials is how many units the two connections replay between two
// host probes (about 20 ms on the reference machine): probing this often
// held same-seed runs within 2% of each other while the host's speed
// swung by half. It is even, so connection c still takes units c, c+2, ….
const chunkTrials = 16

// passResult is one replay of every trial over the two connections.
type passResult struct {
	outs []trialOutcome
	errs []error
	rtt  []float64 // round trips in ms, chunk by chunk
	pl   probeLog  // probes between chunks, indexed by round trips
	wall float64   // wall seconds of the chunks
	busy float64   // the same, host-normalized
}

// pass replays every trial over the two connections, one goroutine per
// connection, in chunks of chunkTrials: both connections finish a chunk,
// the host is probed with nothing in flight, and the next chunk starts.
// mem, when non-nil, samples this process's heap after each trial of
// connection 0 and the daemon's resident set after each chunk.
func (s *loopSession) pass(mem *memSampler) (*passResult, error) {
	p := &passResult{outs: make([]trialOutcome, s.units), errs: make([]error, s.units)}
	var broken [len(s.conns)]error
	p.pl.take(0, true)
	for lo := 0; lo < s.units; lo += chunkTrials {
		hi := min(lo+chunkTrials, s.units)
		start := time.Now()
		var wg sync.WaitGroup
		for c := range s.conns {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for j := lo + c; j < hi; j += len(s.conns) {
					if broken[c] != nil {
						// The session on this connection is broken; the
						// remaining trials of the connection fail too.
						p.errs[j] = broken[c]
						continue
					}
					spec, trial := s.unit(j)
					tr, err := replay.RunTrial(s.conns[c], spec, trial)
					if err != nil {
						broken[c] = fmt.Errorf("unit %d: %w", j, err)
						p.errs[j] = broken[c]
						continue
					}
					p.outs[j] = s.score(tr)
					if c == 0 && mem != nil {
						mem.sampleHeap()
					}
				}
			}(c)
		}
		wg.Wait()
		wall := time.Since(start).Seconds()
		p.rtt = append(p.rtt, s.takeRTT()...)
		p.pl.take(len(p.rtt), true)
		p.wall += wall
		if n := len(p.rtt); n > 0 {
			p.busy += wall * p.pl.scale(n-1)
		}
		if mem != nil {
			if err := mem.sampleRSS(s.d.pid()); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// score checks one replayed trial against the messages it transmitted.
func (s *loopSession) score(tr *replay.TrialResult) trialOutcome {
	pay := tr.Payloads(s.crc)
	out := trialOutcome{tally: tally{slots: tr.SlotsUsed, offered: len(tr.Verified)}}
	for i, ok := range tr.Verified {
		if !ok {
			continue
		}
		out.delivered++
		if !pay[i].Equal(tr.Messages[i]) {
			out.wrong++
		}
	}
	out.digest = trialDigest(tr.SlotsUsed, tr.Verified, func(i int) bits.Vector { return pay[i] })
	return out
}

func (s *loopSession) takeRTT() []float64 {
	var all []float64
	for _, c := range s.conns {
		all = append(all, c.rttMs...)
		c.rttMs = c.rttMs[:0]
	}
	return all
}

func (s *loopSession) run(r *result) error {
	mem := newMemSampler()
	before := readRuntime()
	p, err := s.pass(mem)
	if err != nil {
		return err
	}
	after := readRuntime()
	s.rttMs = p.rtt
	s.trials, s.failed = p.outs, make([]bool, s.units)
	ops := len(s.rttMs)
	r.Attempted = ops
	var tot tally
	for j, err := range p.errs {
		if err == nil && p.outs[j].wrong > 0 {
			err = fmt.Errorf("unit %d: %d wrong payloads", j, p.outs[j].wrong)
		}
		if err != nil {
			s.failed[j] = true
			r.Failed++
			if len(r.Problems) < maxProblems {
				r.fail("%v", err)
			}
			continue
		}
		tot.add(p.outs[j].tally)
	}
	if ops == 0 {
		return fmt.Errorf("no slot exchanges completed")
	}
	// The connections overlap, so throughput comes from the chunks' wall
	// time rather than from the sum of round trips.
	setTiming(r, s.rttMs, &p.pl, true, p.busy, p.wall)
	r.setRuntime(before, after, ops, mem)
	if err := r.setMemory(mem, s.d.pid()); err != nil {
		return err
	}
	setDelivery(r, tot, p.busy)
	var slotB, replyB, frames int64
	for _, c := range s.conns {
		slotB += c.slotBytes
		replyB += c.replyBytes
		frames += c.slotFrames
	}
	r.set("wire.slot_frame_bytes", "B", float64(slotB)/float64(frames))
	r.set("wire.decisions_frame_bytes", "B", float64(replyB)/float64(frames))
	return s.reconcile(r)
}

// reconcile checks the daemon's counters against what the load generator
// sent: every Slot frame ingested, nothing shed, refused, malformed or
// panicked, and no session left open.
func (s *loopSession) reconcile(r *result) error {
	st, err := replay.FetchStats(s.conns[0])
	if err != nil {
		return fmt.Errorf("fetch daemon stats: %w", err)
	}
	var sent int64
	for _, c := range s.conns {
		sent += c.slotFrames
	}
	r.set("engine.slots_ingested", "count", float64(st.SlotsIngested))
	r.set("engine.sessions_shed", "count", float64(st.SessionsShed))
	r.set("engine.busy_rejected", "count", float64(st.BusyRejected))
	r.set("engine.malformed_frames", "count", float64(st.MalformedFrames))
	r.set("engine.panics_recovered", "count", float64(st.PanicsRecovered))
	if st.SlotsIngested != sent {
		r.fail("daemon ingested %d slots, load generator sent %d", st.SlotsIngested, sent)
	}
	if st.SessionsShed+st.BusyRejected+st.MalformedFrames+st.PanicsRecovered+st.DeadlineDrops != 0 {
		r.fail("daemon failure counters: shed %d, busy %d, malformed %d, panics %d, deadline drops %d",
			st.SessionsShed, st.BusyRejected, st.MalformedFrames, st.PanicsRecovered, st.DeadlineDrops)
	}
	if st.ActiveSessions != 0 || st.SessionsOpened != st.SessionsClosed {
		r.fail("daemon sessions: %d active, %d opened, %d closed", st.ActiveSessions, st.SessionsOpened, st.SessionsClosed)
	}
	return nil
}

// codecSample is how many Slot frames (with their replies) the traced
// pass captures for timing wire.Decode and wire.Append.
const codecSample = 512

func (s *loopSession) trace(r *result) error {
	// Traced wire pass: the same trials again, each exchange a span.
	conTr := make([]*tracer, len(s.conns))
	for c, conn := range s.conns {
		conTr[c] = newTracer()
		conTr[c].logCap = 0
		conn.tr = conTr[c]
	}
	s.conns[0].keep = codecSample
	p, err := s.pass(nil)
	if err != nil {
		return err
	}
	for _, conn := range s.conns {
		conn.tr, conn.keep = nil, 0
	}
	for j, err := range p.errs {
		if s.failed[j] {
			continue
		}
		if err != nil {
			s.trialFailed(r, j, fmt.Errorf("traced wire pass: %w", err))
		} else if p.outs[j].digest != s.trials[j].digest {
			s.trialFailed(r, j, fmt.Errorf("traced wire pass decided differently"))
		}
	}
	if err := s.reconcile(r); err != nil {
		return err
	}
	traced := p.pl.normalize(p.rtt)
	wireScale := p.busy / p.wall
	setTraceOverhead(r, traced)
	setCodec(r, s.conns[0].captured, wireScale)

	// In-process pass: the daemon's side of the same trials through the
	// public calls a buzzd session makes, one span per call.
	tr := newTracer()
	m := newMirror(tr)
	defer m.close()
	m.cycles = []float64{}
	var trialMs []float64
	var rootNs int64
	var pl probeLog
	pl.take(0, true)
	for j := 0; j < s.units; j++ {
		spec, trial := s.unit(j)
		tr.op, tr.trial = int32(j), int32(trial)
		tr.begin(spanTrial)
		tr.begin(spanResolve)
		rost, err := spec.ResolveRoster()
		tr.end()
		var out trialOutcome
		if err == nil {
			out, _, err = m.trial(spec, rost, trial)
		}
		d := tr.end()
		rootNs += d
		trialMs = append(trialMs, float64(d)/1e6)
		pl.take(j+1, j == s.units-1)
		if s.failed[j] {
			continue
		}
		if err != nil {
			s.trialFailed(r, j, fmt.Errorf("in-process replay: %w", err))
		} else if out.digest != s.trials[j].digest {
			s.trialFailed(r, j, fmt.Errorf("in-process replay decided differently from buzzd"))
		}
	}
	m.scale = pl.meanScale(trialMs)
	m.report(r, len(s.rttMs), rootNs, trialMs, append([]float64(nil), trialMs...))
	var write, wait, read int64
	for _, t := range conTr {
		write += t.self[spanWireWrite]
		wait += t.self[spanWireWait]
		read += t.self[spanWireRead]
	}
	perSlot := func(ns int64) float64 { return wireScale * float64(ns) / 1e3 / float64(max(len(traced), 1)) }
	r.set("wire.write_us_per_slot", "us", perSlot(write))
	r.set("engine.wait_us_per_slot", "us", perSlot(wait))
	r.set("wire.read_us_per_slot", "us", perSlot(read))
	cyc := m.scale * median(m.cycles)
	r.set("engine.cycle_us_p50", "us", cyc)
	r.Samples["engine.cycle_us_p50"] = len(m.cycles)
	r.set("engine.overhead_us_per_slot", "us", median(traced)*1e3-cyc)
	return writeSpans(s.o, tr)
}

func (s *loopSession) trialFailed(r *result, j int, err error) {
	s.failed[j] = true
	r.Failed++
	if len(r.Problems) < maxProblems {
		r.fail("trial %d: %v", j, err)
	}
}

// setCodec times wire.Decode and wire.Append over captured frames: the
// median, over repetitions, of the cost per Slot→Decisions exchange
// (both frames), scaled to the reference host speed.
func setCodec(r *result, frames [][]byte, scale float64) {
	if len(frames) < 2 {
		return
	}
	const reps = 15
	exchanges := float64(len(frames) / 2)
	decoded := make([]wire.Frame, len(frames))
	var dec, enc []float64
	var buf []byte
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		for i, b := range frames {
			f, err := wire.Decode(b[4], b[5:])
			if err != nil {
				r.fail("decode captured frame: %v", err)
				return
			}
			decoded[i] = f
		}
		dec = append(dec, float64(time.Since(t0))/1e3/exchanges)
		t0 = time.Now()
		for _, f := range decoded {
			var err error
			if buf, err = wire.Append(buf[:0], f); err != nil {
				r.fail("encode captured frame: %v", err)
				return
			}
		}
		enc = append(enc, float64(time.Since(t0))/1e3/exchanges)
	}
	sort.Float64s(dec)
	sort.Float64s(enc)
	r.set("wire.decode_us", "us", scale*dec[reps/2])
	r.set("wire.encode_us", "us", scale*enc[reps/2])
}

func (s *loopSession) close(r *result) {
	for _, c := range s.conns {
		if c != nil {
			c.Close()
		}
	}
	if err := s.d.stop(); err != nil && r != nil {
		r.fail("%v", err)
	}
}
