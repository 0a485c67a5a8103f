// Scenario engine: the generic streaming-trials entrypoint that turns a
// declarative scenario.Spec into channels, rosters and trials. The
// classic experiment functions (CompareDataPhase, RunChallenging) are
// thin wrappers over Run with static specs — the goldens pin that the
// wrapping is byte-exact. Every spec runs through
// ratedapt.TransferDynamic: a static spec as a frozen channel with an
// event-free roster, dynamic ones with drift, churn and mid-round
// re-identification charged via the identify package. Arrival-process
// workloads resolve their roster through scenario.ResolveRoster's
// streaming iterator before the first trial — one O(N) pass shared
// read-only by every trial — so the pipeline below the spec boundary
// only ever sees explicit rosters and no materialized event schedule
// is ever held.
package sim

import (
	"fmt"
	"math"

	"repro/internal/baseline/cdma"
	"repro/internal/baseline/tdma"
	"repro/internal/bits"
	"repro/internal/bp"
	"repro/internal/channel"
	"repro/internal/engine"
	"repro/internal/epc"
	"repro/internal/identify"
	"repro/internal/prng"
	"repro/internal/ratedapt"
	"repro/internal/scenario"
	"repro/internal/scratch"
	"repro/internal/stats"
)

// BuzzTrial is one trial's Buzz outcome in roster order — the per-trial
// detail WithTrialDetail retains (examples use it to show which tag
// delivered what).
type BuzzTrial struct {
	// Verified flags roster tags whose message passed its CRC.
	Verified []bool
	// Payloads holds the delivered payloads (nil where unverified).
	Payloads []bits.Vector
	// Retired flags tags that departed before delivering.
	Retired []bool
	// SlotsUsed, Millis and BitsPerSymbol summarize the round; Millis
	// includes the re-identification air time.
	SlotsUsed     int
	Millis        float64
	BitsPerSymbol float64
	// ReidentBitSlots is the uplink cost of mid-round
	// re-identification bursts.
	ReidentBitSlots int
	// WindowSlots is the coherence window the decode ran with (0 =
	// unbounded) and RowsRetired the rows retired under it (whole rows
	// under a global window, (row, tag) removals under a per-tag one).
	WindowSlots int
	RowsRetired int
	// RowsRetiredPerTag, under a per-tag window, counts per roster tag
	// the rows that aged out of that tag's own window; nil otherwise.
	RowsRetiredPerTag []int
}

// Option tunes a Run call beyond the declarative spec.
type Option func(*runConfig)

type runConfig struct {
	messages   func(trial int) []bits.Vector
	keepTrials bool
}

// WithMessages supplies each trial's payloads (one per roster tag, each
// spec MessageBits long) instead of the default random draw. Custom
// messages shift the trial's setup stream, so golden comparisons only
// hold for the default. Trials run on a worker pool, so the hook is
// called concurrently from multiple goroutines — it must be safe for
// concurrent use (a pure function of the trial index, like the
// examples', is the easy way).
func WithMessages(f func(trial int) []bits.Vector) Option {
	return func(c *runConfig) { c.messages = f }
}

// WithTrialDetail retains per-trial Buzz detail in Outcome.Trials.
func WithTrialDetail() Option {
	return func(c *runConfig) { c.keepTrials = true }
}

// ScenarioOutcome aggregates a scenario run.
type ScenarioOutcome struct {
	// Name echoes the spec.
	Name string
	// Schemes holds one aggregate per requested scheme, in canonical
	// buzz, tdma, cdma order.
	Schemes []SchemeOutcome
	// Latency is the buzz scheme's latency/throughput percentile
	// report (always populated).
	Latency *LatencyReport
	// Trials holds per-trial Buzz detail when WithTrialDetail is set
	// (trial order).
	Trials []BuzzTrial
	// DecodeCost totals the Buzz decoder's per-phase effort across all
	// trials — descent passes, restart passes and bit flips
	// (bp.DecodeCost). The totals are sums of per-trial counters, so
	// they are deterministic at any parallelism.
	DecodeCost bp.DecodeCost
}

// Scheme returns the named aggregate, or nil.
func (o *ScenarioOutcome) Scheme(name string) *SchemeOutcome {
	for i := range o.Schemes {
		if o.Schemes[i].Scheme == name {
			return &o.Schemes[i]
		}
	}
	return nil
}

// scenarioRow is one trial's per-scheme raw numbers.
type scenarioRow struct {
	ms, lost, rate, correct float64
	wrong                   int
}

// trialLatency is one trial's latency samples, kept in a per-trial
// slot and merged in trial order afterward — deterministic at any
// GOMAXPROCS because no sample ever crosses a trial boundary.
// Completion samples live in a per-trial quantile sketch: exact (and
// bit-identical to the flat-slice path) below the sketch buffer,
// fixed-memory above it.
type trialLatency struct {
	// first is the slot of the trial's first verified payload (+Inf
	// when the trial delivered nothing).
	first float64
	// offered and delivered count the trial's roster tags and verified
	// payloads.
	offered, delivered int
	// completion sketches, per offered roster tag, the number of slots
	// the tag was in the field before its payload verified (+Inf for
	// tags that never delivered), in roster order.
	completion *stats.QuantileSketch
}

// Run executes a declarative scenario spec: Trials independent draws of
// messages, channels and (for dynamic specs) tap processes and
// population churn, streamed across the trial worker pool. Each trial
// is drawn by scenario.Spec.Trial, the derivation the wire replay
// client shares. Every trial runs ratedapt.TransferDynamic, and a
// static Spec reproduces CompareDataPhase bit for bit. Arrival-process
// workloads stream their roster once, up front. Results are
// deterministic in (Spec, options) at any parallelism.
func Run(spec scenario.Spec, options ...Option) (*ScenarioOutcome, error) {
	var cfg runConfig
	for _, o := range options {
		o(&cfg)
	}
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	crc, err := spec.CRCKind()
	if err != nil {
		return nil, err
	}
	// Resolve the roster once and share it read-only across trials:
	// arrival-process specs stream their schedule (one O(N) pass, no
	// materialized event schedule), and every trial reuses the same
	// windows and per-tag mobility. The streamed roster is pinned
	// byte-identical to the old materializing path by test.
	rost, err := spec.ResolveRoster()
	if err != nil {
		return nil, err
	}
	windows := rost.Windows
	kTot := len(windows)
	frameLen := spec.Workload.MessageBits + crc.Width()
	runTDMA := spec.HasScheme(scenario.SchemeTDMA)
	runCDMA := spec.HasScheme(scenario.SchemeCDMA)

	const maxSchemes = 3
	rows := make([][maxSchemes]scenarioRow, spec.Trials)
	lat := make([]trialLatency, spec.Trials)
	var trials []BuzzTrial
	if cfg.keepTrials {
		trials = make([]BuzzTrial, spec.Trials)
	}

	costs := make([]bp.DecodeCost, spec.Trials)

	err = forEachTrial(spec.Trials, func(trial int, res *engine.Resources) error {
		var msgs []bits.Vector
		if cfg.messages != nil {
			msgs = cfg.messages(trial)
			if len(msgs) != kTot {
				return fmt.Errorf("sim: options supplied %d messages for %d roster tags", len(msgs), kTot)
			}
			for i, m := range msgs {
				if len(m) != spec.Workload.MessageBits {
					return fmt.Errorf("sim: options message %d has %d bits, spec says %d", i, len(m), spec.Workload.MessageBits)
				}
			}
		}
		tr := spec.Trial(rost, trial, msgs)
		msgs = tr.Messages

		rcfg := ratedapt.Config{
			SessionSalt: tr.Salt,
			CRC:         crc,
			Restarts:    spec.Decode.Restarts,
			MaxSlots:    spec.Decode.MaxSlots,
			Window:      spec.Decode.WindowPolicy(),
			Scratch:     res.Scratch,
			Session:     res.Session,
		}
		var identErr error
		if a := spec.Workload.Arrivals; a != nil && a.Reident == scenario.ReidentAnalytic {
			rcfg.OnArrival = analyticReidentifier
		} else {
			rcfg.OnArrival = reidentifier(tr.Tags, tr.Process, tr.Salt, res.Scratch, &identErr)
		}
		rb, err := ratedapt.TransferDynamic(rcfg, tr.Tags, tr.Process, tr.Process, tr.Noise, prng.NewSource(tr.DecodeSeed))
		if err != nil {
			return err
		}
		if identErr != nil {
			return identErr
		}
		costs[trial] = res.Session.TakeDecodeCost()

		transferMilli := frameMillis(rb.SlotsUsed*frameLen) + epc.UplinkMicros(float64(rb.ReidentBitSlots))/1000
		row := &rows[trial]
		buzz := &row[0]
		buzz.ms = transferMilli
		buzz.lost = float64(rb.Lost())
		buzz.rate = rb.BitsPerSymbol
		var payloads []bits.Vector
		if cfg.keepTrials {
			payloads = make([]bits.Vector, kTot)
		}
		scoreFrames(buzz, rb.Verified, rb.Frames, msgs, crc, payloads)
		lat[trial] = latencySamples(rb.Verified, rb.DecodedAtSlot, windows)
		if cfg.keepTrials {
			trials[trial] = BuzzTrial{
				Verified:          append([]bool(nil), rb.Verified...),
				Payloads:          payloads,
				Retired:           append([]bool(nil), rb.Retired...),
				SlotsUsed:         rb.SlotsUsed,
				Millis:            transferMilli,
				BitsPerSymbol:     rb.BitsPerSymbol,
				ReidentBitSlots:   rb.ReidentBitSlots,
				WindowSlots:       rb.WindowSlots,
				RowsRetired:       rb.RowsRetired,
				RowsRetiredPerTag: append([]int(nil), rb.RowsRetiredTag...),
			}
		}

		if runTDMA {
			rt, err := tdma.Run(tdma.Config{CRC: crc, UseMiller: true}, msgs, tr.Channel, tr.Setup.Fork(3))
			if err != nil {
				return err
			}
			r := &row[1]
			r.ms = frameMillis(rt.BitSlots)
			r.lost = float64(rt.Lost())
			r.rate = 1
			scoreFrames(r, rt.Verified, rt.Frames, msgs, crc, nil)
		}
		if runCDMA {
			rc, err := cdma.Run(cdma.Config{CRC: crc}, msgs, tr.Channel, tr.Setup.Fork(4))
			if err != nil {
				return err
			}
			r := &row[2]
			r.ms = frameMillis(rc.BitSlots)
			r.lost = float64(rc.Lost())
			r.rate = float64(kTot) / float64(rc.SpreadingFactor)
			scoreFrames(r, rc.Verified, rc.Frames, msgs, crc, nil)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := &ScenarioOutcome{Name: spec.Name, Trials: trials}
	for _, c := range costs {
		out.DecodeCost.Add(c)
	}
	schemes := []struct {
		name string
		idx  int
		on   bool
	}{
		{scenario.SchemeBuzz, 0, true},
		{scenario.SchemeTDMA, 1, runTDMA},
		{scenario.SchemeCDMA, 2, runCDMA},
	}
	for _, sch := range schemes {
		if !sch.on {
			continue
		}
		var ms, lost, rate, correct []float64
		wrong := 0
		for t := range rows {
			r := &rows[t][sch.idx]
			ms = append(ms, r.ms)
			lost = append(lost, r.lost)
			rate = append(rate, r.rate)
			correct = append(correct, r.correct)
			wrong += r.wrong
		}
		out.Schemes = append(out.Schemes, SchemeOutcome{
			Scheme:           sch.name,
			TransferMillis:   stats.Summarize(ms),
			Undecoded:        stats.Summarize(lost),
			BitsPerSymbol:    stats.Summarize(rate),
			DeliveredCorrect: stats.Summarize(correct),
			WrongPayload:     wrong,
		})
	}
	var totalMillis float64
	for t := range rows {
		totalMillis += rows[t][0].ms
	}
	out.Latency = buildLatencyReport(lat, totalMillis)
	return out, nil
}

// latencySamples folds one trial's decode timeline into its latency
// slot: per-tag completion (slots in the field until verification)
// sketched in roster order, and the trial's time to first payload.
func latencySamples(verified []bool, decodedAt []int, windows []scenario.Window) trialLatency {
	tl := trialLatency{
		first:      math.Inf(1),
		completion: stats.NewQuantileSketch(),
	}
	for i := range verified {
		tl.offered++
		if !verified[i] || decodedAt == nil || decodedAt[i] < 1 {
			tl.completion.Add(math.Inf(1))
			continue
		}
		tl.delivered++
		tl.completion.Add(float64(decodedAt[i] - windows[i].Arrive() + 1))
		if s := float64(decodedAt[i]); s < tl.first {
			tl.first = s
		}
	}
	return tl
}

// scoreFrames tallies one scheme's verified frames into the trial row —
// payload matches the sent message = correct, a CRC false-accept =
// wrong. When payloads is non-nil (WithTrialDetail), each verified
// payload is also stored at its tag's index.
func scoreFrames(r *scenarioRow, verified []bool, frames []bits.Vector, msgs []bits.Vector, crc bits.CRCKind, payloads []bits.Vector) {
	for i, ok := range verified {
		if !ok {
			continue
		}
		p := bits.PayloadOf(frames[i], crc)
		if p.Equal(msgs[i]) {
			r.correct++
		} else {
			r.wrong++
		}
		if payloads != nil {
			payloads[i] = p
		}
	}
}

// analyticReidentifier is the OnArrival hook for reident mode
// "analytic": instead of simulating a three-stage burst over the air,
// it charges identify.ExpectedSlots for the population present at the
// arrival slot — O(1) per burst against the simulated protocol's cost
// (dominated by stage-C compressed sensing, which scales with the
// present population and made simulated bursts the profile's 99.9%
// at warehouse rosters). The transfer's roster walk supplies the
// present count, so the hook is a pure function of it: deterministic
// at any parallelism.
func analyticReidentifier(_ int, _ []int, present int) int {
	return identify.ExpectedSlots(present)
}

// reidentifier builds the OnArrival hook: a mid-round re-identification
// burst over the tags present at the arrival slot, run with the real
// three-stage protocol so the charged slot cost carries the actual
// stage-A/B/C budget for the instantaneous population. Errors are
// captured into errOut (the hook signature cannot return one).
func reidentifier(roster []ratedapt.RosterTag, proc channel.Process, salt uint64, sc *scratch.Scratch, errOut *error) func(slot int, arriving []int, present int) int {
	return func(slot int, _ []int, _ int) int {
		if *errOut != nil {
			return 0
		}
		m := proc.ModelAt(slot)
		var ids []uint64
		var taps []complex128
		for i := range roster {
			rt := &roster[i]
			if rt.Arrive() <= slot && (rt.DepartSlot == 0 || rt.DepartSlot > slot) {
				ids = append(ids, rt.Seed)
				taps = append(taps, m.Taps[i])
			}
		}
		ch := channel.NewExact(taps, m.NoisePower)
		ch.AGCNoiseFraction = m.AGCNoiseFraction
		burstSeed := prng.Mix3(salt, 0x1DE7, uint64(slot))
		res, err := identify.Run(identify.Config{Salt: burstSeed, Scratch: sc}, ids, ch, prng.NewSource(prng.Mix2(burstSeed, 0xA1)))
		if err != nil {
			*errOut = fmt.Errorf("sim: re-identification at slot %d: %w", slot, err)
			return 0
		}
		return res.TotalSlots
	}
}
