package main

import (
	"math"
	"net"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/engine/wire"
)

func TestNearestRankAndTailRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		n          int
		q          float64
		want       float64
		wantBeyond int
	}{
		{100, 0.5, 50, 50},
		{100, 0.9, 90, 10},
		{99, 0.9, 90, 9}, // ceil(89.1) = 90: only 9 samples beyond
		{1, 0.99, 1, 0},
	} {
		got, beyond := nearestRank(xs[:c.n], c.q)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("n=%d q=%v: got %v with %d beyond, want %v with %d", c.n, c.q, got, beyond, c.want, c.wantBeyond)
		}
	}

	r := &result{Metrics: map[string]metric{}, Samples: map[string]int{}}
	r.setPercentiles("op_ms", "ms", xs, false)
	if len(r.Problems) != 0 || r.Metrics["op_ms_p90"].Value != 90 || r.Samples["op_ms_p90"] != 100 {
		t.Errorf("100 samples: p90 %v (n=%d), problems %v", r.Metrics["op_ms_p90"], r.Samples["op_ms_p90"], r.Problems)
	}
	r.setPercentiles("op_ms", "ms", xs, true)
	if len(r.Problems) != 1 {
		t.Errorf("p99 over 100 samples should fail the ≥%d-beyond rule, problems %v", minBeyond, r.Problems)
	}
}

func TestProbeScale(t *testing.T) {
	// Probes before sample 0, after samples 0, 2 and 4 (so after the
	// last one); the host ran the probe at nominal speed, then at half.
	p := probeLog{
		at: []int{0, 1, 3, 5},
		ms: []float64{probeNominalMs, probeNominalMs, 2 * probeNominalMs, 2 * probeNominalMs},
	}
	// Every sample's window covers all four probes (probeSpan is 4 on
	// each side), so every scale is nominal / mean = 1/1.5.
	got := p.normalize([]float64{3, 3, 3, 3, 3})
	for i, v := range got {
		if math.Abs(v-2) > 1e-12 {
			t.Errorf("sample %d normalized to %v, want 2", i, v)
		}
	}
	if s := p.meanScale([]float64{1, 2, 3}); math.Abs(s-1/1.5) > 1e-12 {
		t.Errorf("mean scale %v, want %v", s, 1/1.5)
	}
	if s := p.slowdown(); s != 1 && s != 2 {
		t.Errorf("slowdown %v, want the median probe over nominal", s)
	}

	// With more probes than the window, a sample sees only its
	// neighbours: probe k follows sample k-1, and probes from 8 on are
	// slow.
	var q probeLog
	for k := 0; k < 16; k++ {
		q.at = append(q.at, k)
		ms := probeNominalMs
		if k >= 8 {
			ms *= 2
		}
		q.ms = append(q.ms, ms)
	}
	for _, c := range []struct {
		sample int
		want   float64
	}{{1, 1}, {12, 0.5}} {
		if s := q.scale(c.sample); math.Abs(s-c.want) > 1e-12 {
			t.Errorf("sample %d: scale %v, want %v", c.sample, s, c.want)
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	clock := []int64{0, 10, 30, 40, 45, 55, 70, 100}
	tr := newTracer()
	tr.now = func() int64 {
		v := clock[0]
		clock = clock[1:]
		return v
	}
	tr.begin(spanOp)      // 0
	tr.begin(spanDecode)  // 10
	tr.end()              // 30
	tr.begin(spanTrial)   // 40
	tr.begin(spanAdvance) // 45
	tr.end()              // 55
	tr.end()              // 70
	if d := tr.end(); d != 100 {
		t.Fatalf("op duration %d, want 100", d)
	}
	for k, want := range map[spanKind]int64{spanOp: 50, spanDecode: 20, spanTrial: 20, spanAdvance: 10} {
		if tr.self[k] != want {
			t.Errorf("%s self %d, want %d", spanNames[k], tr.self[k], want)
		}
	}
	if got := tr.leafSelf(); got != 30 {
		t.Errorf("leaf self %d, want 30", got)
	}
	wantParent := []int32{-1, 0, 0, 2}
	for i, rec := range tr.log {
		if rec.Parent != wantParent[i] {
			t.Errorf("span %d (%s) parent %d, want %d", i, rec.Name, rec.Parent, wantParent[i])
		}
	}
	if tr.log[3].Start != 45 || tr.log[3].End != 55 {
		t.Errorf("advance span %+v, want 45..55", tr.log[3])
	}
}

func TestRTTConnTimesOnlySlotExchanges(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		defer server.Close()
		for {
			f, err := wire.ReadFrame(server)
			if err != nil {
				return
			}
			var reply wire.Frame
			switch f.(type) {
			case *wire.Open:
				reply = &wire.Opened{SessionID: 7, FrameLen: 37}
			case *wire.Slot:
				reply = &wire.Decisions{SessionID: 7, Slot: 1, Colliders: 2, Accepted: []wire.Decision{{Tag: 1, Frame: make([]bool, 37)}}}
			default:
				reply = &wire.Error{Msg: "unexpected"}
			}
			if err := wire.WriteFrame(server, reply); err != nil {
				return
			}
		}
	}()

	tr := newTracer()
	c := &rttConn{Conn: client, tr: tr, keep: 1}
	slot := &wire.Slot{SessionID: 7, Obs: make([]complex128, 37)}
	for _, f := range []wire.Frame{&wire.Open{Version: wire.ProtocolVersion}, slot} {
		if err := wire.WriteFrame(c, f); err != nil {
			t.Fatal(err)
		}
		if _, err := wire.ReadFrame(c); err != nil {
			t.Fatal(err)
		}
	}
	slotB, _ := wire.Append(nil, slot)
	decB, _ := wire.Append(nil, &wire.Decisions{SessionID: 7, Slot: 1, Colliders: 2, Accepted: []wire.Decision{{Tag: 1, Frame: make([]bool, 37)}}})
	if len(c.rttMs) != 1 || c.rttMs[0] <= 0 {
		t.Errorf("round trips %v, want one positive sample (the Open exchange is not timed)", c.rttMs)
	}
	if c.slotFrames != 1 || c.slotBytes != int64(len(slotB)) || c.replyBytes != int64(len(decB)) {
		t.Errorf("counted %d slot frames, %d slot bytes, %d reply bytes; want 1, %d, %d",
			c.slotFrames, c.slotBytes, c.replyBytes, len(slotB), len(decB))
	}
	if len(tr.stack) != 0 || tr.calls[spanExchange] != 1 || tr.calls[spanWireWait] != 1 || tr.calls[spanWireRead] != 1 {
		t.Errorf("spans: %d open, exchange/wait/read calls %d/%d/%d, want 0 and 1/1/1",
			len(tr.stack), tr.calls[spanExchange], tr.calls[spanWireWait], tr.calls[spanWireRead])
	}
	if len(c.captured) != 2 || len(c.captured[0]) != len(slotB) || len(c.captured[1]) != len(decB) {
		t.Errorf("captured %d frames, want the slot frame and its reply", len(c.captured))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	if q1, q2, q3 := quartiles([]float64{1, 2, 3}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v %v %v", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 102, 103, 104}
	for _, c := range []struct {
		change []float64
		won    int
		want   string
	}{
		{[]float64{80, 81, 82, 83, 84}, 5, "improved"},
		{[]float64{101, 102, 103, 104, 105}, 1, "no worse within bound"},
		{[]float64{120, 121, 122, 123, 124}, 0, "worse"},
	} {
		if got := verdict(parent, c.change, c.won, 5, false, 0.1); got != c.want {
			t.Errorf("change %v: %s, want %s", c.change, got, c.want)
		}
	}
	noisy := []float64{60, 80, 100, 120, 140}
	if got := verdict(noisy, []float64{70, 90, 101, 121, 141}, 2, 5, false, 0.1); got != "unresolved" {
		t.Errorf("spread wider than the bound: %s, want unresolved", got)
	}
}

// TestQuickSmoke runs every workload for a few ops with the traced pass
// and checks that the run is correct, that the traced outcomes equal the
// untraced ones, and that every metric BENCHMARK.json names is measured
// in its unit.
func TestQuickSmoke(t *testing.T) {
	dir := t.TempDir()
	buzzd := filepath.Join(dir, "buzzd")
	if out, err := exec.Command("go", "build", "-o", buzzd, "repro/cmd/buzzd").CombinedOutput(); err != nil {
		t.Fatalf("build buzzd: %v\n%s", err, out)
	}
	c, err := loadContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, -seconds defaults to %d", c.RunSeconds, defaultSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, workloads[i].name)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{workload: w.name, seconds: 1, trace: true, quick: true,
				root: "..", out: dir, work: dir, buzzd: buzzd}
			r := runWorkload(o)
			if !r.correct() {
				t.Fatalf("run not correct: %d of %d ops failed, problems %v", r.Failed, r.Attempted, r.Problems)
			}
			for _, trace := range []bool{false, true} {
				r.Trace = trace
				if _, err := c.line(r); err != nil {
					t.Errorf("trace=%v: %v", trace, err)
				}
			}
		})
	}
}
