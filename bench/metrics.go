package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// metric is one measured value with its unit, as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run: what was attempted, which checks failed,
// and every metric measured. Samples gives the sample count behind each
// percentile.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Quick     bool              `json:"quick,omitempty"`
	Seconds   int               `json:"seconds"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Samples   map[string]int    `json:"samples,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
}

func newResult(o options) *result {
	return &result{
		Workload: o.workload,
		Seed:     o.seed,
		Trace:    o.trace,
		Quick:    o.quick,
		Seconds:  o.seconds,
		Metrics:  map[string]metric{},
		Samples:  map[string]int{},
	}
}

func (r *result) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed check; any failed check makes the run incorrect.
func (r *result) fail(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return len(r.Problems) == 0 && r.Failed == 0 }

// nearestRank returns the nearest-rank q-quantile of xs (the
// ceil(q·n)-th smallest sample) and how many samples lie beyond it.
// xs must be sorted.
func nearestRank(xs []float64, q float64) (v float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n)
	return xs[rank-1], n - rank
}

// median is the nearest-rank median of xs, which it leaves unchanged.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, _ := nearestRank(s, 0.5)
	return v
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// minBeyond is how many samples a reported tail percentile needs past it.
const minBeyond = 10

// setPercentiles reports op_ms_p50, op_ms_p90 and, when asked, op_ms_p99
// over the per-op times. A tail with fewer than minBeyond samples past it
// is still printed, with a problem recorded unless the run is a smoke
// run.
func (r *result) setPercentiles(prefix, unit string, xs []float64, p99 bool) {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	qs := []float64{0.50, 0.90}
	if p99 {
		qs = append(qs, 0.99)
	}
	for _, q := range qs {
		v, beyond := nearestRank(sorted, q)
		name := fmt.Sprintf("%s_p%.0f", prefix, q*100)
		r.set(name, unit, v)
		r.Samples[name] = len(sorted)
		if q > 0.5 && beyond < minBeyond && !r.Quick {
			r.fail("%s has %d samples beyond it (need %d)", name, beyond, minBeyond)
		}
	}
}

// runtimeSample is the runtime/metrics state the untraced section is
// differenced over.
type runtimeSample struct {
	allocs, allocBytes uint64
	gcCPU, totalCPU    float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// memSampler samples memory at points of the timed section: the live
// heap of this process (as marked by the last GC) and the resident set of
// the process doing the work.
type memSampler struct {
	s       []metrics.Sample
	liveMax uint64
	rss     []float64 // MiB
}

func newMemSampler() *memSampler {
	return &memSampler{s: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (m *memSampler) sampleHeap() {
	metrics.Read(m.s)
	m.liveMax = max(m.liveMax, m.s[0].Value.Uint64())
}

// sampleRSS records the resident set of a process ("self" for this one).
func (m *memSampler) sampleRSS(pid string) error {
	v, err := procStatusMB(pid, "VmRSS")
	if err != nil {
		return err
	}
	m.rss = append(m.rss, v)
	return nil
}

// setRuntime reports the runtime counters of the untraced timed section.
func (r *result) setRuntime(before, after runtimeSample, ops int, mem *memSampler) {
	n := float64(max(ops, 1))
	r.set("runtime.allocs_per_op", "count", float64(after.allocs-before.allocs)/n)
	r.set("runtime.alloc_bytes_per_op", "B", float64(after.allocBytes-before.allocBytes)/n)
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		r.set("runtime.gc_cpu_frac", "1", (after.gcCPU-before.gcCPU)/cpu)
	} else {
		r.set("runtime.gc_cpu_frac", "1", 0)
	}
	r.set("runtime.heap_live_mb_max", "MiB", float64(mem.liveMax)/(1<<20))
}

// setMemory reports the working process's resident set: the median of
// the samples taken through the timed section, and the peak (VmHWM, read
// at the end). Both are per-layer numbers, not end-to-end ones: after a
// rare heavy headline input the live heap and the resident set stay at
// its level for the rest of the run, so whether a seed's op range holds
// one moved the median from 11.3 to 16.2 MiB across ten seeds; a bound
// on it would flag input draws rather than changes to the program.
func (r *result) setMemory(mem *memSampler, pid string) error {
	peak, err := procStatusMB(pid, "VmHWM")
	if err != nil {
		return err
	}
	if len(mem.rss) == 0 {
		return fmt.Errorf("no resident-set samples")
	}
	r.set("runtime.rss_mb", "MiB", median(mem.rss))
	r.Samples["runtime.rss_mb"] = len(mem.rss)
	r.set("runtime.peak_rss_mb", "MiB", peak)
	return nil
}

// procStatusMB reads a size field (VmRSS, VmHWM) of a process in MiB from
// /proc/<pid>/status.
func procStatusMB(pid, field string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field+":") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

// contract is the part of BENCHMARK.json the benchmark reads: which
// metrics the result line carries, and each end-to-end metric's bound.
type contract struct {
	RunSeconds int           `json:"run_seconds"`
	Workloads  []contractRow `json:"workloads"`
	EndToEnd   []contractRow `json:"end_to_end"`
	PerLayer   []contractRow `json:"per_layer"`
}

type contractRow struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit,omitempty"`
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// resultLine is the last line of standard output: the contract's subset
// of the run's metrics (end-to-end untraced, per-layer traced).
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (c *contract) line(r *result) (resultLine, error) {
	rows := c.EndToEnd
	if r.Trace {
		rows = c.PerLayer
	}
	out := resultLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	for _, row := range rows {
		m, ok := r.Metrics[row.Name]
		if !ok {
			return out, fmt.Errorf("workload %s did not measure %s", r.Workload, row.Name)
		}
		if m.Unit != row.Unit {
			return out, fmt.Errorf("workload %s measured %s in %s, BENCHMARK.json says %s", r.Workload, row.Name, m.Unit, row.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return out, fmt.Errorf("workload %s measured %s = %v", r.Workload, row.Name, m.Value)
		}
		out.Metrics[row.Name] = m
	}
	return out, nil
}
