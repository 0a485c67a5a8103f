// Command bench is the repository's end-to-end and per-layer benchmark.
//
// It runs one of four workloads — headline, mobility, warehouse,
// buzzd-loopback — for a fixed, seed-derived amount of work, each in its
// own child process at GOMAXPROCS=1, checks every output, and prints
// every metric with its name, unit and sample count. With -trace 1 it
// then replays the same operations through the program's public calls,
// with a span around each layer's call, and reports per-layer self
// times and exact counts. The last line of standard output is one JSON
// object with the metrics BENCHMARK.json lists. See README.md.
//
// Usage, from the repository root (bench/run.sh builds the benchmark and
// buzzd into .bench_build and runs it with these flags):
//
//	bash bench/run.sh -workload headline -seed 0 -seconds 20 -trace 0
//	bash bench/run.sh -workload all -quick
//	bash bench/run.sh compare <parent-results-dir> <change-results-dir>
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	quick    bool
	root     string // repository root: examples/ and BENCHMARK.json
	out      string // results directory
	work     string // directory for the daemon's socket
	buzzd    string // buzzd binary
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// childTimeout bounds one workload's child process; a run that overruns
// is killed with everything it started.
const childTimeout = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	o, child, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if child {
		r := runWorkload(o)
		if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(runParent(o, os.Stdout))
}

func parseFlags(args []string) (options, bool, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "all", "workload to run: headline, mobility, warehouse, buzzd-loopback or all")
	fs.Uint64Var(&o.seed, "seed", 0, "seed block: op i uses the workload's own seed + seed·100000 + i (1 is the hold-out seed)")
	fs.IntVar(&o.seconds, "seconds", defaultSeconds, "run length: sizes each workload's fixed op count")
	fs.IntVar(&trace, "trace", 0, "1 replays the ops traced and reports the per-layer metrics")
	fs.BoolVar(&o.quick, "quick", false, "smoke run: a few ops per workload")
	fs.StringVar(&o.root, "root", ".", "repository root")
	fs.StringVar(&o.out, "out", ".bench_build/results", "directory for result files and span logs")
	fs.StringVar(&o.work, "work", ".bench_build", "directory for the daemon's unix socket")
	fs.StringVar(&o.buzzd, "buzzd", ".bench_build/bin/buzzd", "buzzd binary")
	child := fs.Bool("child", false, "run one workload in this process and print its result as JSON")
	if err := fs.Parse(args); err != nil {
		return o, false, err
	}
	if fs.NArg() > 0 {
		return o, false, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return o, false, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if o.seconds < 1 {
		return o, false, fmt.Errorf("-seconds must be positive, got %d", o.seconds)
	}
	o.trace = trace == 1
	if o.workload != "all" {
		if _, err := lookupWorkload(o.workload); err != nil {
			return o, false, err
		}
	}
	return o, *child, nil
}

func (o options) args() []string {
	trace := "0"
	if o.trace {
		trace = "1"
	}
	return []string{"-child", "-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", trace, "-quick=" + strconv.FormatBool(o.quick),
		"-root", o.root, "-out", o.out, "-work", o.work, "-buzzd", o.buzzd}
}

// runParent runs each requested workload in a child, writes and prints
// its result, and ends with the result line. It returns the exit code.
func runParent(o options, stdout io.Writer) int {
	c, err := loadContract(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	line := resultLine{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		wo := o
		wo.workload = name
		r, err := runChild(wo)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		if err := writeResult(wo, r); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printResult(stdout, r)
		l, err := c.line(r)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		line.Correct = line.Correct && l.Correct
		line.Attempted += l.Attempted
		line.Failed += l.Failed
		for k, v := range l.Metrics {
			if len(names) > 1 {
				k = name + "/" + k
			}
			line.Metrics[k] = v
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !line.Correct {
		return 1
	}
	return 0
}

// runChild runs one workload in a child process of its own at
// GOMAXPROCS=1. The child dies with this process, and the daemon it
// starts dies with it, so a run that overruns or is interrupted leaves
// nothing behind.
func runChild(o options) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, o.args()...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, fmt.Errorf("did not finish within %v", childTimeout)
		}
		return nil, fmt.Errorf("child: %w", err)
	}
	var r result
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &r, nil
}

func resultPath(o options, suffix string) string {
	name := fmt.Sprintf("%s-seed%d", o.workload, o.seed)
	if o.trace {
		name += "-trace"
	}
	return filepath.Join(o.out, name+suffix)
}

func writeResult(o options, r *result) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(resultPath(o, ".json"), append(b, '\n'), 0o644)
}

// writeSpans writes a traced run's span log next to its result file.
func writeSpans(o options, tr *tracer) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	return tr.writeLog(resultPath(o, "-spans.jsonl"))
}

// printResult prints every metric by name with its value, unit and, for
// percentiles, the sample count, then any failed checks.
func printResult(w io.Writer, r *result) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s seed %d (%s): %d ops attempted, %d failed\n", r.Workload, r.Seed, mode, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Metrics[k]
		extra := ""
		if n, ok := r.Samples[k]; ok {
			extra = fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintf(w, "  %-34s %16.6f %-5s%s\n", k, m.Value, m.Unit, extra)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
}
