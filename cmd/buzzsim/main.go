// Command buzzsim runs Buzz sessions and scenario workloads from the
// command line.
//
// Usage:
//
//	buzzsim run   <spec.json> [-repeat 1] [-cpuprofile out.prof] [-memprofile heap.prof]
//	buzzsim check <spec.json>
//	buzzsim sweep <spec.json> [-seed N]
//	buzzsim [-k 8] [-snr-lo 14] [-snr-hi 30] [-bytes 4] [-seed 1] [-periodic]
//	        [-repeat 1] [-cpuprofile out.prof] [-memprofile heap.prof]
//
// `run` executes a declarative scenario spec (see the README's "Writing
// scenario specs" section for the format) through the scenario engine.
// `check` parses and validates the spec (including the decode window
// and arrival-process fields) and prints a summary of what would run —
// no trials execute, so a misspelled field, an inverted SNR band or an
// impossible population event fails loudly here instead of after a
// long run. `sweep` binary-searches the maximum sustainable arrival
// rate of an arrival-process spec under its declared SLO and prints a
// reproducible capacity report.
//
// Without a subcommand, buzzsim runs one ad-hoc session end to end
// from flags and prints a per-tag report:
//
//	$ buzzsim -k 12 -snr-lo 8 -snr-hi 20
//	identification: K̂=12, 289 slots, 4.61 ms, 12/12 identified
//	transfer: 17 slots, 7.86 ms, 0.71 bits/symbol
//	tag 0xe9c0000: delivered at slot 3, payload 74616730
//	...
//
// With -repeat N the session runs from N consecutive seeds, prints its
// two summary lines per seed, and ends with one totals line. The
// summary lines count a wrong payload as delivered; the totals line
// counts it apart, and also counts the wrong payloads that equal
// another tag's:
//
//	$ buzzsim -k 8 -seed 88 -repeat 8 | tail -1
//	totals: 8 sessions, 62/64 identified, 60 delivered correct, 1 wrong (1 another tag's payload), 371 transfer slots
//
// Scenario output:
//
//	$ buzzsim run examples/scenarios/mobility.json
//	scenario "forklift-aisle": 24 trials, 10 tags (8 initial), channel gauss-markov, seed 31337
//	  buzz: 280.71 ms mean transfer, 4.96 lost, 0.01 bits/symbol, 5.04/10 delivered correct, 0 wrong
//
// With -repeat N the spec is parsed once and run N times, stepping the
// seed each run — the profiling loop for scenario paths:
//
//	$ buzzsim run examples/scenarios/mobility.json -repeat 200 -cpuprofile decode.prof
//	$ go tool pprof decode.prof
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"

	"repro/buzz"
	"repro/internal/channel"
	"repro/internal/ratedapt"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "run":
			os.Exit(cmdRun(os.Args[2:]))
		case "check":
			os.Exit(cmdCheck(os.Args[2:]))
		case "sweep":
			os.Exit(cmdSweep(os.Args[2:]))
		}
	}
	os.Exit(sessionMain())
}

// cmdRun is `buzzsim run <spec.json>`: the scenario engine from a file.
func cmdRun(args []string) int {
	fs := flag.NewFlagSet("buzzsim run", flag.ExitOnError)
	repeat := fs.Int("repeat", 1, "run the scenario this many times, iterating the seed")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the full run to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write an end-of-run heap profile to this file (go tool pprof)")
	paths := parseInterspersed(fs, args)
	if len(paths) != 1 {
		fmt.Fprintln(os.Stderr, "buzzsim: usage: buzzsim run <spec.json> [-repeat N] [-cpuprofile f] [-memprofile f]")
		return 2
	}
	if *repeat < 1 {
		fmt.Fprintln(os.Stderr, "buzzsim: -repeat must be positive")
		return 2
	}
	return withProfiles(*cpuProfile, *memProfile, func() error {
		return runScenario(paths[0], *repeat)
	})
}

// cmdCheck is `buzzsim check <spec.json>`: validate, summarize, exit.
func cmdCheck(args []string) int {
	fs := flag.NewFlagSet("buzzsim check", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "buzzsim: usage: buzzsim check <spec.json>")
		return 2
	}
	if err := checkScenario(fs.Arg(0)); err != nil {
		fmt.Fprintf(os.Stderr, "buzzsim: %v\n", err)
		return 1
	}
	return 0
}

// cmdSweep is `buzzsim sweep <spec.json>`: the SLO capacity sweep.
func cmdSweep(args []string) int {
	fs := flag.NewFlagSet("buzzsim sweep", flag.ExitOnError)
	seed := fs.Uint64("seed", 0, "override the spec's seed (0 keeps the spec's own)")
	paths := parseInterspersed(fs, args)
	if len(paths) != 1 {
		fmt.Fprintln(os.Stderr, "buzzsim: usage: buzzsim sweep <spec.json> [-seed N]")
		return 2
	}
	spec, err := scenario.Load(paths[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "buzzsim: %v\n", err)
		return 1
	}
	if *seed != 0 {
		spec.Seed = *seed
	}
	rep, err := sim.Sweep(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "buzzsim: %v\n", err)
		return 1
	}
	fmt.Print(rep.Render())
	return 0
}

// parseInterspersed parses args with fs, accepting flags both before
// and after the positional arguments (the flag package alone stops at
// the first non-flag), and returns the positional arguments in order.
// A bare "--" ends flag parsing as usual: everything after it is
// positional.
func parseInterspersed(fs *flag.FlagSet, args []string) []string {
	var pos []string
	for {
		fs.Parse(args)
		rest := fs.Args()
		if len(rest) == 0 {
			return pos
		}
		if len(rest) < len(args) && args[len(args)-len(rest)-1] == "--" {
			return append(pos, rest...)
		}
		pos = append(pos, rest[0])
		args = rest[1:]
	}
}

// sessionMain is the subcommand-free interface: one ad-hoc session
// end to end from flags.
func sessionMain() int {
	k := flag.Int("k", 8, "number of tags with data")
	snrLo := flag.Float64("snr-lo", 14, "lower bound of the per-tag SNR band (dB)")
	snrHi := flag.Float64("snr-hi", 30, "upper bound of the per-tag SNR band (dB)")
	nBytes := flag.Int("bytes", 4, "payload size per tag in bytes")
	seed := flag.Uint64("seed", 1, "session seed (deterministic replay)")
	periodic := flag.Bool("periodic", false, "periodic network: skip identification (§4b)")
	repeat := flag.Int("repeat", 1, "run the session this many times (iterating the seed); profiling runs want more samples than one session provides")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the full run to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write an end-of-run heap profile to this file (go tool pprof)")
	flag.Parse()

	if *k < 1 || *nBytes < 1 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "buzzsim: -k, -bytes and -repeat must be positive")
		return 2
	}
	return withProfiles(*cpuProfile, *memProfile, func() error {
		return run(*k, *nBytes, *repeat, *seed, *snrLo, *snrHi, *periodic)
	})
}

// withProfiles brackets work with the optional CPU/heap profile
// teardown; every error path returns through it so profiles land even
// on failure.
func withProfiles(cpuProfile, memProfile string, work func() error) int {
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "buzzsim: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "buzzsim: -cpuprofile: %v\n", err)
			return 1
		}
	}
	runErr := work()
	if cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if memProfile != "" {
		if err := writeHeapProfile(memProfile); err != nil {
			fmt.Fprintf(os.Stderr, "buzzsim: -memprofile: %v\n", err)
			return 1
		}
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "buzzsim: %v\n", runErr)
		return 1
	}
	return 0
}

// checkScenario parses and validates a spec without running a single
// trial — the pre-flight for expensive workload files. scenario.Load
// already rejects unknown fields and inconsistent values with
// actionable messages; this adds a human summary of what would run so
// a typo that *is* valid JSON (say, a wrong rho) is visible too.
func checkScenario(path string) error {
	spec, err := scenario.Load(path)
	if err != nil {
		return err
	}
	name := spec.Name
	if name == "" {
		name = path
	}
	fmt.Printf("spec OK: %q\n", name)
	fmt.Printf("  tags:       %d initial, %d roster total\n", spec.Workload.K, spec.TotalTags())
	fmt.Printf("  trials:     %d (seed %d, max %d slots, %d restarts)\n", spec.Trials, spec.Seed, spec.Decode.MaxSlots, spec.Decode.Restarts)
	fmt.Printf("  snr band:   %g..%g dB, agc %g\n", spec.Channel.SNRLodB, spec.Channel.SNRHidB, spec.Channel.AGCNoiseFraction)
	fmt.Printf("  payload:    %d bits + %s\n", spec.Workload.MessageBits, spec.Decode.CRC)
	switch spec.Channel.Kind {
	case scenario.KindBlockFading:
		fmt.Printf("  channel:    block-fading, block_len %d\n", spec.Channel.BlockLen)
	case scenario.KindGaussMarkov:
		if len(spec.Channel.PerTagRho) > 0 {
			fmt.Printf("  channel:    gauss-markov, per-tag rho %v\n", spec.Channel.PerTagRho)
		} else if a := spec.Workload.Arrivals; a != nil && a.RhoHi != 0 {
			fmt.Printf("  channel:    gauss-markov, rho band [%g, %g] drawn per tag\n", a.RhoLo, a.RhoHi)
		} else {
			fmt.Printf("  channel:    gauss-markov, rho %g\n", spec.Channel.Rho)
		}
	default:
		fmt.Printf("  channel:    static\n")
	}
	switch spec.Decode.Window {
	case scenario.WindowAuto:
		fmt.Printf("  window:     auto (from the channel's coherence time)\n")
	case scenario.WindowFixed:
		fmt.Printf("  window:     fixed, %d slots\n", spec.Decode.DecodeWindow)
	case scenario.WindowPerTag:
		fmt.Printf("  window:     per_tag (hard retire): %s\n", perTagWindowSummary(spec))
	default:
		fmt.Printf("  window:     none (whole-round decode)\n")
	}
	if a := spec.Workload.Arrivals; a != nil {
		fmt.Printf("  arrivals:   %s, %g tags/slot, %d tags from slot %d", a.Process, a.Rate, a.Count, a.StartSlot)
		if a.Process == scenario.ArrivalBurst {
			fmt.Printf(", bursts of %d", a.BurstSize)
		}
		if a.Dwell > 0 {
			fmt.Printf(", dwell %d slots", a.Dwell)
		}
		fmt.Println()
		printArrivalSchedule(spec, a)
	}
	for _, e := range spec.Workload.Population {
		fmt.Printf("  population: slot %d: +%d/-%d\n", e.Slot, e.Arrive, e.Depart)
	}
	if slo := spec.SLO; slo != nil {
		fmt.Printf("  slo:        p99_completion_slots <= %d, max_wrong <= %d", slo.P99CompletionSlots, slo.MaxWrong)
		if slo.MinDeliveredFraction > 0 {
			fmt.Printf(", delivered >= %.4f", slo.MinDeliveredFraction)
		}
		if slo.RateLo > 0 {
			fmt.Printf(", sweep band [%g, %g]", slo.RateLo, slo.RateHi)
		}
		if len(slo.Readers) > 0 {
			fmt.Printf(", readers %v", slo.Readers)
		}
		fmt.Println()
	}
	fmt.Printf("  schemes:    %v\n", spec.Schemes)
	return nil
}

// printArrivalSchedule resolves the arrival schedule exactly as a run
// would (the same streaming iterator sim.Run consumes) and summarizes
// the offered roster: truncation at the slot budget, the dwell band,
// the re-identification mode and the latency estimator are all decided
// by the resolved schedule, so a spec that silently offers far fewer
// tags than its declared count (rate too low for max_slots) or that
// will charge simulated re-identification on a 50k roster is visible
// before the first trial runs.
func printArrivalSchedule(spec scenario.Spec, a *scenario.ArrivalSpec) {
	rost, err := spec.ResolveRoster()
	if err != nil {
		fmt.Printf("  schedule:   unavailable (%v)\n", err)
		return
	}
	offered := len(rost.Windows)
	scheduled := offered - spec.Workload.K
	lastArrive, departing, minDwell, maxDwell := 0, 0, 0, 0
	for _, w := range rost.Windows {
		lastArrive = max(lastArrive, w.ArriveSlot)
		if w.DepartSlot > 0 {
			d := w.DepartSlot - w.ArriveSlot
			if departing == 0 || d < minDwell {
				minDwell = d
			}
			maxDwell = max(maxDwell, d)
			departing++
		}
	}
	fmt.Printf("  schedule:   %d tags offered per trial (%d initial + %d arrivals", offered, spec.Workload.K, scheduled)
	if scheduled < a.Count {
		fmt.Printf("; %d of %d truncated at max_slots", a.Count-scheduled, a.Count)
	}
	fmt.Printf("), last arrival slot %d\n", lastArrive)
	if departing > 0 {
		fmt.Printf("  dwell:      %d/%d tags depart in-budget, dwell %d..%d slots\n", departing, offered, minDwell, maxDwell)
	}
	mode := "simulate (re-identification decoded per arrival burst)"
	if a.Reident == scenario.ReidentAnalytic {
		mode = "analytic (expected-slot budget, no per-burst decode)"
	}
	fmt.Printf("  reident:    %s\n", mode)
	if offered > stats.DefaultSketchBuffer {
		fmt.Printf("  estimator:  sketch (%d samples/trial > %d buffer; completion quantiles carry a rank-error bound)\n", offered, stats.DefaultSketchBuffer)
	} else {
		fmt.Printf("  estimator:  exact (%d samples/trial fit the %d-sample sketch buffer)\n", offered, stats.DefaultSketchBuffer)
	}
}

// perTagWindowSummary resolves the spec's per-tag windows exactly as
// the decode loop will (ratedapt.ResolveTagWindows over the spec's
// channel process — taps do not matter for coherence, so a zero-tap
// model suffices) and summarizes them: min/median/max over the finite
// windows plus the count of never-windowed tags. Spec authors see the
// effective policy without running a single trial. Arrival-process
// specs resolve their roster through the same streaming iterator a run
// uses, so any per-tag rho band draws match what the run would see.
func perTagWindowSummary(spec scenario.Spec) string {
	rost, err := spec.ResolveRoster()
	if err != nil {
		return fmt.Sprintf("unavailable (%v)", err)
	}
	k := len(rost.Windows)
	proc := spec.NewProcessRoster(channel.NewExact(make([]complex128, k), 1), 0, rost.Rho)
	wins := ratedapt.ResolveTagWindows(proc, spec.Decode.MaxSlots, k)
	if wins == nil {
		return "no tag ever windows (every channel outlives the slot budget)"
	}
	var finite []int
	unbounded := 0
	for _, w := range wins {
		if w > 0 {
			finite = append(finite, w)
		} else {
			unbounded++
		}
	}
	sort.Ints(finite)
	med := finite[len(finite)/2]
	if len(finite)%2 == 0 {
		med = (finite[len(finite)/2-1] + finite[len(finite)/2]) / 2
	}
	s := fmt.Sprintf("%d/%d tags windowed, coherence slots min %d, median %d, max %d",
		len(finite), k, finite[0], med, finite[len(finite)-1])
	if unbounded > 0 {
		s += fmt.Sprintf("; %d unbounded", unbounded)
	}
	return s
}

// runScenario parses the spec once and executes it repeat times,
// stepping the seed per run — the parse is hoisted out of the loop so
// profiling runs measure the engine, not JSON decoding.
func runScenario(path string, repeat int) error {
	spec, err := scenario.Load(path)
	if err != nil {
		return err
	}
	name := spec.Name
	if name == "" {
		name = path
	}
	for r := 0; r < repeat; r++ {
		runSpec := spec
		runSpec.Seed = spec.Seed + uint64(r)
		out, err := sim.Run(runSpec)
		if err != nil {
			return err
		}
		fmt.Printf("scenario %q: %d trials, %d tags (%d initial), channel %s, seed %d\n",
			name, runSpec.Trials, runSpec.TotalTags(), runSpec.Workload.K, runSpec.Channel.Kind, runSpec.Seed)
		for _, sch := range out.Schemes {
			fmt.Printf("  %-4s: %6.2f ms mean transfer, %.2f lost, %.2f bits/symbol, %.2f/%d delivered correct, %d wrong\n",
				sch.Scheme, sch.TransferMillis.Mean, sch.Undecoded.Mean, sch.BitsPerSymbol.Mean,
				sch.DeliveredCorrect.Mean, runSpec.TotalTags(), sch.WrongPayload)
		}
		if out.Latency != nil {
			fmt.Printf("  latency: %s\n", out.Latency)
		}
	}
	return nil
}

// sessionTally totals ad-hoc sessions. A delivered payload counts as
// correct only when it equals the one its tag sent; a wrong payload that
// equals another tag's is also counted as a copy.
type sessionTally struct {
	sessions, tags, identified, correct, wrong, copies, slots int
}

func (t *sessionTally) add(tags []buzz.Tag, res *buzz.Transfer) {
	t.sessions++
	t.tags += len(tags)
	t.slots += res.Slots
	for i, tr := range res.Tags {
		if tr.Identified {
			t.identified++
		}
		switch {
		case !tr.Delivered:
		case bytes.Equal(tr.Payload, tags[i].Payload):
			t.correct++
		default:
			t.wrong++
			if slices.ContainsFunc(tags, func(o buzz.Tag) bool { return bytes.Equal(tr.Payload, o.Payload) }) {
				t.copies++
			}
		}
	}
}

func (t *sessionTally) String() string {
	return fmt.Sprintf("totals: %d sessions, %d/%d identified, %d delivered correct, %d wrong (%d another tag's payload), %d transfer slots",
		t.sessions, t.identified, t.tags, t.correct, t.wrong, t.copies, t.slots)
}

func run(k, nBytes, repeat int, seed uint64, snrLo, snrHi float64, periodic bool) error {
	var total sessionTally
	for r := 0; r < repeat; r++ {
		tags := make([]buzz.Tag, k)
		for i := range tags {
			payload := make([]byte, nBytes)
			for j := range payload {
				payload[j] = byte(i*31 + j*7 + 1)
			}
			tags[i] = buzz.Tag{ID: uint64(0xE9C0000 + i*7919), Payload: payload}
		}

		sess, err := buzz.NewSession(tags, buzz.Options{
			Seed:          seed + uint64(r),
			Channel:       buzz.ChannelSpec{SNRLodB: snrLo, SNRHidB: snrHi},
			KnownSchedule: periodic,
		})
		if err != nil {
			return err
		}

		if !periodic {
			id, err := sess.Identify()
			if err != nil {
				return fmt.Errorf("identify: %w", err)
			}
			fmt.Printf("identification: K̂=%d, %d slots, %.2f ms, %d/%d identified\n",
				id.KEstimate, id.Slots, id.Millis, id.IdentifiedCount(), k)
		}

		res, err := sess.TransferData()
		if err != nil {
			return fmt.Errorf("transfer: %w", err)
		}
		fmt.Printf("transfer: %d slots, %.2f ms, %.2f bits/symbol, %d/%d delivered\n",
			res.Slots, res.Millis, res.BitsPerSymbol, res.Delivered(), k)
		total.add(tags, res)
		if repeat > 1 {
			continue // per-tag detail only makes sense for a single session
		}
		for i, tr := range res.Tags {
			switch {
			case tr.Delivered:
				fmt.Printf("tag %#x: delivered at slot %d, payload %x (snr %.1f dB)\n",
					tr.ID, tr.DecodedAtSlot, tr.Payload, sess.SNRdB(i))
			case tr.Identified:
				fmt.Printf("tag %#x: identified but NOT delivered (snr %.1f dB)\n", tr.ID, sess.SNRdB(i))
			default:
				fmt.Printf("tag %#x: NOT identified this round (snr %.1f dB)\n", tr.ID, sess.SNRdB(i))
			}
		}
	}
	if repeat > 1 {
		fmt.Println(&total)
	}
	return nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}
