package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// spanKind names one span: a container (op, trial, exchange) or a leaf
// around one public call of one layer.
type spanKind uint8

const (
	spanOp spanKind = iota
	spanTrial
	spanExchange
	spanSetup
	spanScore
	spanResolve
	spanModel
	spanOpen
	spanAdvance
	spanSynth
	spanAppend
	spanDecode
	spanFinish
	spanIdentify
	spanFSA
	spanBTree
	spanTDMA
	spanCDMA
	spanWireWrite
	spanWireWait
	spanWireRead
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spanOp:        "op",
	spanTrial:     "sim.trial",
	spanExchange:  "exchange",
	spanSetup:     "sim.setup",
	spanScore:     "sim.score",
	spanResolve:   "scenario.resolve",
	spanModel:     "channel.model",
	spanOpen:      "ratedapt.open",
	spanAdvance:   "ratedapt.advance",
	spanSynth:     "ratedapt.synth",
	spanAppend:    "bp.append",
	spanDecode:    "bp.decode",
	spanFinish:    "ratedapt.finish",
	spanIdentify:  "identify.run",
	spanFSA:       "baseline.fsa",
	spanBTree:     "baseline.btree",
	spanTDMA:      "baseline.tdma",
	spanCDMA:      "baseline.cdma",
	spanWireWrite: "wire.write",
	spanWireWait:  "engine.wait",
	spanWireRead:  "wire.read",
}

// isContainer reports whether a span kind only groups other spans; every
// other kind is a leaf around one call into the program.
func (k spanKind) isContainer() bool {
	return k == spanOp || k == spanTrial || k == spanExchange
}

// spanRecord is one finished span as written to the JSONL log. Times are
// nanoseconds since the tracer started.
type spanRecord struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Trial  int32  `json:"trial"`
}

type openSpan struct {
	kind  spanKind
	start int64
	child int64 // time covered by direct children
	idx   int32 // index in the log, -1 when the log is full
}

// tracer records nested spans from the benchmark's own replay code. It keeps
// each kind's self time (duration minus the time its direct children
// cover) as it goes, so the per-layer numbers need no pass over the log;
// the log itself is capped so a long run stays in bounded memory. A
// tracer is used by one goroutine.
type tracer struct {
	now       func() int64
	stack     []openSpan
	self      [numSpanKinds]int64
	calls     [numSpanKinds]int64
	op, trial int32
	log       []spanRecord
	logCap    int
	dropped   int
}

// spanLogCap bounds the spans kept for the JSONL log (~64 bytes each).
const spanLogCap = 200_000

func newTracer() *tracer {
	t0 := time.Now()
	return &tracer{
		now:    func() int64 { return int64(time.Since(t0)) },
		logCap: spanLogCap,
		op:     -1,
		trial:  -1,
	}
}

func (t *tracer) begin(k spanKind) {
	idx := int32(-1)
	start := t.now()
	if len(t.log) < t.logCap {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		idx = int32(len(t.log))
		t.log = append(t.log, spanRecord{Name: spanNames[k], Start: start, Parent: parent, Op: t.op, Trial: t.trial})
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, openSpan{kind: k, start: start, idx: idx})
}

// end closes the innermost open span and returns its duration in ns.
func (t *tracer) end() int64 {
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	now := t.now()
	d := now - s.start
	t.self[s.kind] += d - s.child
	t.calls[s.kind]++
	if n > 0 {
		t.stack[n-1].child += d
	}
	if s.idx >= 0 {
		t.log[s.idx].End = now
	}
	return d
}

// leafSelf sums the self time of every leaf kind.
func (t *tracer) leafSelf() int64 {
	var s int64
	for k := spanKind(0); k < numSpanKinds; k++ {
		if !k.isContainer() {
			s += t.self[k]
		}
	}
	return s
}

// writeLog writes the kept spans as JSONL.
func (t *tracer) writeLog(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.log {
		if err := enc.Encode(&t.log[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
