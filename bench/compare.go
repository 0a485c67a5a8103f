package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compareMain is `bench compare <parent-dir> <change-dir>`: the
// same-machine A/B of two result directories written with identical
// settings, one run per seed on each side. For every workload and
// end-to-end metric it prints each side's median and quartiles, the
// share of same-seed pairs the change won, and a verdict; then the
// exact diff of the deterministic counts.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	root := fs.String("root", ".", "repository root (for BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-root dir] <parent-results-dir> <change-results-dir>")
		return 2
	}
	c, err := loadContract(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	parent, err := loadResults(fs.Arg(0))
	if err == nil {
		var change map[string][]*result
		change, err = loadResults(fs.Arg(1))
		if err == nil {
			compare(w, c, parent, change)
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 1
}

// loadResults reads every result file of a directory, by workload.
func loadResults(dir string) (map[string][]*result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*result{}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	return out, nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// exclusive method); xs must be sorted and hold at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// side is one metric's untraced values on one side, by seed.
type side map[uint64]float64

func (s side) sorted() []float64 {
	xs := make([]float64, 0, len(s))
	for _, v := range s {
		xs = append(xs, v)
	}
	sort.Float64s(xs)
	return xs
}

func untracedValues(rs []*result, name string) side {
	out := side{}
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok && !r.Trace && !r.Quick {
			out[r.Seed] = m.Value
		}
	}
	return out
}

// verdict applies the A/B rule: improved when the change wins at least
// nine tenths of the pairs and the medians differ by more than the
// parent's quartile spread; worse when the change's median is worse by
// more than the bound; unresolved when the parent's own spread exceeds
// the bound, unless every change run beats every parent run.
func verdict(parent, change []float64, won, pairs int, higher bool, bound float64) string {
	pq1, pm, pq3 := quartiles(parent)
	_, cm, _ := quartiles(change)
	better := func(a, b float64) bool {
		if higher {
			return a > b
		}
		return a < b
	}
	if pairs > 0 && float64(won) >= 0.9*float64(pairs) && better(cm, pm) && math.Abs(cm-pm) > pq3-pq1 {
		return "improved"
	}
	worse := (cm - pm) / math.Abs(pm)
	if higher {
		worse = -worse
	}
	if worse > bound {
		return "worse"
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	if (pq3-pq1)/math.Abs(pm) > bound && !allBetter {
		return "unresolved"
	}
	return "no worse within bound"
}

func compare(w io.Writer, c *contract, parent, change map[string][]*result) {
	var names []string
	for name := range parent {
		if _, ok := change[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if lengths := runLengths(parent[name], change[name]); len(lengths) > 1 {
			fmt.Fprintf(w, "warning: %s runs differ in -seconds %v; compare runs of one length\n", name, lengths)
		}
	}
	fmt.Fprintf(w, "%-15s %-14s %28s %28s %9s  %s\n", "workload", "metric", "parent q1/median/q3", "change q1/median/q3", "pairs won", "verdict")
	for _, name := range names {
		for _, row := range c.EndToEnd {
			pv := untracedValues(parent[name], row.Name)
			cv := untracedValues(change[name], row.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			won, pairs := 0, 0
			for seed, p := range pv {
				cval, ok := cv[seed]
				if !ok {
					continue
				}
				pairs++
				if (row.Better == "higher" && cval > p) || (row.Better == "lower" && cval < p) {
					won++
				}
			}
			ps, cs := pv.sorted(), cv.sorted()
			p1, p2, p3 := quartiles(ps)
			c1, c2, c3 := quartiles(cs)
			fmt.Fprintf(w, "%-15s %-14s %28s %28s %4d/%-4d  %s\n", name, row.Name,
				fmt.Sprintf("%.4g/%.4g/%.4g", p1, p2, p3), fmt.Sprintf("%.4g/%.4g/%.4g", c1, c2, c3),
				won, pairs, verdict(ps, cs, won, pairs, row.Better == "higher", row.Bound))
		}
	}
	fmt.Fprintln(w, "\ndeterministic counts (exact, same seed and mode on both sides):")
	for _, name := range names {
		diffs := countDiffs(parent[name], change[name])
		if len(diffs) == 0 {
			fmt.Fprintf(w, "  %-15s identical\n", name)
		}
		for _, d := range diffs {
			fmt.Fprintf(w, "  %-15s %s\n", name, d)
		}
	}
}

// runLengths lists the distinct -seconds values of full runs.
func runLengths(sides ...[]*result) []int {
	seen := map[int]bool{}
	var out []int
	for _, rs := range sides {
		for _, r := range rs {
			if !r.Quick && !seen[r.Seconds] {
				seen[r.Seconds] = true
				out = append(out, r.Seconds)
			}
		}
	}
	sort.Ints(out)
	return out
}

// isCount reports whether a metric is a machine-independent count: the
// decode-cost and population counters and the delivery outcome.
func isCount(name string) bool {
	switch name {
	case "delivered_frac", "wrong_payloads", "bp.restart_frac", "ratedapt.present_frac":
		return true
	}
	return strings.HasSuffix(name, "_per_slot") && !strings.HasSuffix(name, "us_per_slot") ||
		name == "identify.calls_per_op" || name == "identify.slots_per_call" || name == "sim.slots_per_op"
}

func countDiffs(parent, change []*result) []string {
	type key struct {
		seed  uint64
		trace bool
	}
	index := func(rs []*result) map[key]*result {
		m := map[key]*result{}
		for _, r := range rs {
			if !r.Quick {
				m[key{r.Seed, r.Trace}] = r
			}
		}
		return m
	}
	pm, cm := index(parent), index(change)
	var out []string
	for k, p := range pm {
		ch, ok := cm[k]
		if !ok {
			continue
		}
		for name, m := range p.Metrics {
			if !isCount(name) {
				continue
			}
			if cmv, ok := ch.Metrics[name]; ok && cmv.Value != m.Value {
				out = append(out, fmt.Sprintf("seed %d trace=%v %s: %v -> %v", k.seed, k.trace, name, m.Value, cmv.Value))
			}
		}
	}
	sort.Strings(out)
	return out
}
