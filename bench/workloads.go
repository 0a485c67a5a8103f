package main

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/bits"
	"repro/internal/bp"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// seedStride separates the op seeds of consecutive -seed values: op i of
// a run at seed N uses the workload's own seed + N·seedStride + i.
const seedStride = 100_000

// warmupIndex places the set-up's warm-up op at the workload's own seed
// + warmupIndex: outside every run's op range, and the same work at every
// -seed, so set-up time does not move with the seed.
const warmupIndex = seedStride - 1

// workload is one named input set. A work unit is one op for the sim
// workloads and one replayed trial for buzzd-loopback (see
// loopSession.unit), whose ops are the trial's slot exchanges.
type workload struct {
	name string
	// unitMs is one unit's wall time on the reference machine (2 shared
	// vCPUs, GOMAXPROCS=1, quiet host). With share it converts -seconds
	// into a fixed unit count.
	unitMs float64
	// share is the part of -seconds the workload's timed section takes
	// on the reference machine. Mobility gets all of it: its ops vary
	// most from seed to seed, so its op_ms_p90 needs the most ops to
	// repeat; headline's many short ops need a quarter of it.
	share      float64
	quickUnits int
	// p99 reports op_ms_p99, for a workload with at least 1000 ops.
	p99 bool
	// wrongKnown marks a workload where the decoder is known to deliver
	// wrong payloads: they are counted and reported. Elsewhere an op that
	// delivers one fails.
	wrongKnown bool
	open       func(w *workload, o options, units int) (session, error)
}

// session is one set-up workload: run is the untraced timed section,
// trace the traced replay of the same units, close stops what open
// started.
type session interface {
	run(r *result) error
	trace(r *result) error
	close(r *result)
}

var workloads = []workload{
	{
		name:       "headline",
		unitMs:     16,
		share:      0.25,
		quickUnits: 3,
		open:       openHeadline,
	},
	{
		// Per-tag windows at long coherence times do not hold zero wrong
		// payloads; the count is left visible.
		name:       "mobility",
		unitMs:     90,
		share:      1,
		quickUnits: 2,
		wrongKnown: true,
		open:       scenarioOpener("mixed-mobility.json", func(s *scenario.Spec) { s.Trials = 2 }),
	},
	{
		// 100 arrivals over 400 slots rather than the file's 550 over
		// 2400: joined tags still outgrow present ones, and an op is short
		// enough for well over 100 of them to fit one run.
		name:       "warehouse",
		unitMs:     70,
		share:      0.5,
		quickUnits: 1,
		open: scenarioOpener("warehouse.json", func(s *scenario.Spec) {
			a := *s.Workload.Arrivals
			a.Count = 100
			s.Workload.Arrivals = &a
			s.Decode.MaxSlots = 400
			s.Trials = 1
		}),
	},
	{
		name:       "buzzd-loopback",
		unitMs:     2,
		share:      0.5,
		quickUnits: 8,
		p99:        true,
		open:       openLoopback,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// units converts the run length into a fixed unit count: the same
// -seconds always gives the same work, so simulated outcomes repeat
// exactly and only host time varies.
func (w *workload) units(o options) int {
	if o.quick {
		return w.quickUnits
	}
	// Every reported tail percentile keeps ≥10 samples past it: 100 ops
	// for p90 (loopback trials hold dozens of ops each).
	return max(100, int(math.Round(float64(o.seconds)*w.share*1000/w.unitMs)))
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 7

// runWorkload sets the workload up setupReps times (reporting the median
// as setup_s), runs the untraced timed section, and with -trace the
// traced replay. It never panics on a program error: every failure
// lands in the result's problems.
func runWorkload(o options) *result {
	r := newResult(o)
	w, err := lookupWorkload(o.workload)
	if err != nil {
		r.fail("%v", err)
		return r
	}
	units := w.units(o)
	reps := setupReps
	if o.quick {
		reps = 1
	}
	var s session
	var pl probeLog
	setups := make([]float64, 0, reps)
	for rep := 0; rep < reps; rep++ {
		if s != nil {
			s.close(r)
		}
		pl.take(rep, true)
		t0 := time.Now()
		s, err = w.open(w, o, units)
		if err != nil {
			r.fail("set-up: %v", err)
			return r
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	pl.take(reps, true)
	r.set("raw.setup_s", "s", median(setups))
	r.set("setup_s", "s", median(pl.normalize(setups)))
	r.Samples["setup_s"] = len(setups)

	if err := s.run(r); err != nil {
		r.fail("%v", err)
	} else if o.trace {
		if err := s.trace(r); err != nil {
			r.fail("traced pass: %v", err)
		}
	}
	s.close(r)
	r.set("failed_frac", "1", float64(r.Failed)/float64(max(r.Attempted, 1)))
	return r
}

// simSession runs one sim entry point per op, in this process.
type simSession struct {
	o        options
	w        *workload
	units    int
	spec     scenario.Spec // zero for headline
	base     uint64        // the op-0 seed
	outcomes []opOutcome
	failed   []bool
	opMs     []float64
}

const headlineTrials = 3

func openHeadline(w *workload, o options, units int) (session, error) {
	const own = 19
	s := &simSession{o: o, w: w, units: units, base: own + o.seed*seedStride}
	if _, err := s.op(own + warmupIndex); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// scenarioOpener loads an example spec, applies the workload's overrides
// to the loaded struct (the file stays as shipped), resolves its roster
// and runs the warm-up op.
func scenarioOpener(file string, override func(*scenario.Spec)) func(*workload, options, int) (session, error) {
	return func(w *workload, o options, units int) (session, error) {
		spec, err := scenario.Load(filepath.Join(o.root, "examples", "scenarios", file))
		if err != nil {
			return nil, err
		}
		override(&spec)
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		if _, err := spec.ResolveRoster(); err != nil {
			return nil, err
		}
		s := &simSession{o: o, w: w, units: units, spec: spec, base: spec.Seed + o.seed*seedStride}
		if _, err := s.op(spec.Seed + warmupIndex); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		return s, nil
	}
}

// op runs one untraced op at the given seed.
func (s *simSession) op(seed uint64) (opOutcome, error) {
	if s.spec.Trials == 0 {
		h, err := sim.RunHeadline(headlineTrials, seed)
		if err != nil {
			return opOutcome{}, err
		}
		return opOutcome{headline: h, digest: headlineDigest(h)}, nil
	}
	spec := s.spec
	spec.Seed = seed
	out, err := sim.Run(spec, sim.WithTrialDetail())
	if err != nil {
		return opOutcome{}, err
	}
	var o opOutcome
	ds := make([]uint64, len(out.Trials))
	for t := range out.Trials {
		bt := &out.Trials[t]
		o.slots += bt.SlotsUsed
		o.offered += len(bt.Verified)
		for _, ok := range bt.Verified {
			if ok {
				o.delivered++
			}
		}
		ds[t] = trialDigest(bt.SlotsUsed, bt.Verified, func(i int) bits.Vector { return bt.Payloads[i] })
	}
	o.digest = combine(ds)
	o.wrong = out.Schemes[0].WrongPayload
	o.cost = out.DecodeCost
	return o, nil
}

// maxProblems caps the per-op problem messages a run keeps.
const maxProblems = 20

func (s *simSession) opFailed(r *result, i int, err error) {
	r.Failed++
	if len(r.Problems) < maxProblems {
		r.fail("op %d: %v", i, err)
	}
}

func (s *simSession) run(r *result) error {
	s.outcomes = make([]opOutcome, s.units)
	s.failed = make([]bool, s.units)
	s.opMs = make([]float64, s.units)
	mem := newMemSampler()
	var pl probeLog
	before := readRuntime()
	pl.take(0, true)
	for i := 0; i < s.units; i++ {
		t0 := time.Now()
		out, err := s.op(s.base + uint64(i))
		s.opMs[i] = float64(time.Since(t0)) / 1e6
		if err == nil && out.wrong > 0 && !s.w.wrongKnown {
			err = fmt.Errorf("%d wrong payloads", out.wrong)
		}
		if err != nil {
			s.failed[i] = true
			s.opFailed(r, i, err)
		}
		s.outcomes[i] = out
		mem.sampleHeap()
		if err := mem.sampleRSS("self"); err != nil {
			return err
		}
		pl.take(i+1, i == s.units-1)
	}
	after := readRuntime()
	r.Attempted = s.units

	busy := sum(pl.normalize(s.opMs)) / 1e3
	setTiming(r, s.opMs, &pl, s.w.p99, busy, sum(s.opMs)/1e3)
	r.setRuntime(before, after, s.units, mem)
	if err := r.setMemory(mem, "self"); err != nil {
		return err
	}
	if s.spec.Trials == 0 {
		s.checkHeadline(r)
		return nil
	}
	var tot tally
	var cost bp.DecodeCost
	for i := range s.outcomes {
		tot.add(s.outcomes[i].tally)
		cost.Add(s.outcomes[i].cost)
	}
	setDelivery(r, tot, busy)
	setCost(r, cost, int64(tot.slots))
	return nil
}

// checkHeadline reports the paper's two headline ratios averaged over
// the run's ops; each must exceed 1 (a single op's three trials can dip
// below it).
func (s *simSession) checkHeadline(r *result) {
	var ident, gain float64
	n := 0
	for i, o := range s.outcomes {
		if !s.failed[i] {
			ident += o.headline.IdentSpeedup
			gain += o.headline.DataRateGain
			n++
		}
	}
	ident /= float64(max(n, 1))
	gain /= float64(max(n, 1))
	r.set("headline.ident_speedup", "1", ident)
	r.set("headline.data_rate_gain", "1", gain)
	if !(ident > 1 && gain > 1) {
		r.fail("headline ratios over %d ops: identification speedup %.3f, data-rate gain %.3f, want both > 1", n, ident, gain)
	}
}

// setTiming reports a run's timing metrics, host-normalized by the run's
// probes, with the values as measured under "raw.": the percentiles of the
// per-op times (ms), and ops per second of the time the ops kept the
// benchmark busy, which is busy seconds normalized and rawBusy as measured.
func setTiming(r *result, opMs []float64, pl *probeLog, p99 bool, busy, rawBusy float64) {
	ops := float64(len(opMs))
	r.set("ops_per_s", "1/s", ops/busy)
	r.set("raw.ops_per_s", "1/s", ops/rawBusy)
	r.setPercentiles("op_ms", "ms", pl.normalize(opMs), p99)
	r.setPercentiles("raw.op_ms", "ms", opMs, p99)
	r.set("host.slowdown", "1", pl.slowdown())
	r.Samples["host.slowdown"] = len(pl.ms)
}

// setDelivery reports the decode outcome metrics of a run: slots and
// correct payloads per normalized busy second, the delivered share of
// offered tags, and the wrong-payload count.
func setDelivery(r *result, tot tally, busy float64) {
	correct := tot.delivered - tot.wrong
	r.set("slots_per_s", "1/s", float64(tot.slots)/busy)
	r.set("tags_per_s", "1/s", float64(correct)/busy)
	r.set("delivered_frac", "1", float64(correct)/float64(max(tot.offered, 1)))
	r.set("wrong_payloads", "count", float64(tot.wrong))
}

func (s *simSession) trace(r *result) error {
	tr := newTracer()
	m := newMirror(tr)
	defer m.close()
	var trialMs, trialMax, opMs []float64
	var rootNs int64
	var pl probeLog
	pl.take(0, true)
	for i := 0; i < s.units; i++ {
		tr.op = int32(i)
		n := len(trialMs)
		seed := s.base + uint64(i)
		tr.begin(spanOp)
		var out opOutcome
		var err error
		if s.spec.Trials == 0 {
			out, err = m.headlineOp(headlineTrials, seed, &trialMs)
		} else {
			spec := s.spec
			spec.Seed = seed
			out, err = m.scenarioOp(spec, &trialMs)
		}
		d := tr.end()
		if len(tr.stack) != 0 {
			return fmt.Errorf("op %d left %d spans open", i, len(tr.stack))
		}
		rootNs += d
		opMs = append(opMs, float64(d)/1e6)
		if n < len(trialMs) {
			trialMax = append(trialMax, slices.Max(trialMs[n:]))
		}
		pl.take(i+1, i == s.units-1)
		if s.failed[i] {
			continue
		}
		if err != nil {
			s.opFailed(r, i, fmt.Errorf("traced: %w", err))
			continue
		}
		if msg := mismatch(s.outcomes[i], out, s.spec.Trials != 0); msg != "" {
			s.opFailed(r, i, fmt.Errorf("traced outcome differs: %s", msg))
		}
	}
	m.scale = pl.meanScale(opMs)
	m.report(r, s.units, rootNs, trialMs, trialMax)
	setTraceOverhead(r, pl.normalize(opMs))
	return writeSpans(s.o, tr)
}

// setTraceOverhead compares the traced ops' median with the untraced one;
// both are host-normalized.
func setTraceOverhead(r *result, traced []float64) {
	p50 := median(traced)
	r.set("trace.op_ms_p50", "ms", p50)
	r.Samples["trace.op_ms_p50"] = len(traced)
	r.set("trace.overhead_frac", "1", p50/r.Metrics["op_ms_p50"].Value-1)
}

func (s *simSession) close(*result) {}
