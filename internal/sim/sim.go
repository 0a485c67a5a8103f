// Package sim orchestrates the paper's experiments end to end: it builds
// channels, runs Buzz and the baselines over repeated trials, and
// aggregates the statistics each figure of the evaluation reports. The
// figure-regeneration command (cmd/figures) and the repository's bench
// harness are thin wrappers over this package.
package sim

import (
	"fmt"

	"repro/internal/baseline/btree"
	"repro/internal/baseline/cdma"
	"repro/internal/baseline/fsa"
	"repro/internal/baseline/tdma"
	"repro/internal/bits"
	"repro/internal/channel"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/epc"
	"repro/internal/identify"
	"repro/internal/phy"
	"repro/internal/prng"
	"repro/internal/ratedapt"
	"repro/internal/scenario"
	"repro/internal/scratch"
	"repro/internal/stats"
)

// Profile fixes the environment shared by all schemes in a comparison:
// channel statistics and receiver impairments. The default profile is
// calibrated so the testbed-shaped results of §9/§10 reproduce.
type Profile struct {
	// SNRLodB and SNRHidB bound the per-tag SNR band the channels are
	// drawn from.
	SNRLodB, SNRHidB float64
	// AGCNoiseFraction is the receiver dynamic-range impairment (see
	// channel.Model).
	AGCNoiseFraction float64
	// MessageBits is the payload size (the paper's §9 experiments use
	// 32-bit messages with CRC-5).
	MessageBits int
	// CRC selects the checksum.
	CRC bits.CRCKind
}

// DefaultProfile mirrors the paper's bench conditions for the Fig. 10/11
// sweeps: tags between roughly 14 and 30 dB of per-symbol SNR — a cart
// of tags within the Moo's working range — and a mild receiver
// dynamic-range impairment.
func DefaultProfile() Profile {
	return Profile{
		SNRLodB:          14,
		SNRHidB:          30,
		AGCNoiseFraction: 0.002,
		MessageBits:      32,
		CRC:              bits.CRC5,
	}
}

func (p Profile) channel(k int, src *prng.Source) *channel.Model {
	ch := channel.NewFromSNRBand(k, p.SNRLodB, p.SNRHidB, src)
	ch.AGCNoiseFraction = p.AGCNoiseFraction
	return ch
}

func (p Profile) messages(k int, src *prng.Source) []bits.Vector {
	msgs := make([]bits.Vector, k)
	for i := range msgs {
		msgs[i] = bits.Random(src, p.MessageBits)
	}
	return msgs
}

func tagSeeds(k int, src *prng.Source) []uint64 {
	seeds := make([]uint64, k)
	for i := range seeds {
		seeds[i] = src.Uint64()
	}
	return seeds
}

// frameMillis converts bit-slot counts at the frame granularity into
// milliseconds of uplink air time.
func frameMillis(bitSlots int) float64 {
	return epc.UplinkMicros(float64(bitSlots)) / 1000
}

// batchEngine is the process-wide session manager every simulation
// trial runs on: the simulator is one client of the engine package (the
// buzzd daemon is the other), so the resource pooling, worker count and
// counters live in exactly one place: min(GOMAXPROCS, trials) trial
// workers, each decoding its trials on its own goroutine.
var batchEngine = engine.New(engine.Config{})

// forEachTrial runs the trial body for indices [0, trials) across the
// batch engine's bounded worker pool. Each trial derives its own
// deterministic streams from its index (scenario.TrialSource), so
// results are independent of scheduling order; the body writes into
// per-trial slots, never shared state. Every worker owns pooled engine Resources (one scratch
// arena, one decoder session), recycled between trials: the first trial
// a worker runs warms them and later same-shaped trials allocate
// nothing in the decode hot path.
func forEachTrial(trials int, body func(trial int, res *engine.Resources) error) error {
	return batchEngine.RunBatch(trials, body)
}

// SchemeOutcome aggregates one scheme's behaviour over a trial set.
type SchemeOutcome struct {
	// Scheme names the contender: "buzz", "tdma" or "cdma".
	Scheme string
	// TransferMillis summarizes total data-transfer time per trial.
	TransferMillis stats.Summary
	// Undecoded summarizes messages lost per trial.
	Undecoded stats.Summary
	// BitsPerSymbol summarizes the aggregate rate per trial (fixed at 1
	// for TDMA and CDMA by construction).
	BitsPerSymbol stats.Summary
	// DeliveredCorrect summarizes correctly delivered messages per
	// trial (the Fig. 12 y-axis).
	DeliveredCorrect stats.Summary
	// WrongPayload counts verified-but-wrong messages across all
	// trials (possible in principle with short CRCs; should be zero).
	WrongPayload int
}

// DataPhaseConfig parameterizes the Fig. 10/11 comparison.
type DataPhaseConfig struct {
	// K is the number of tags with data.
	K int
	// Trials is the number of independent locations/channel draws.
	Trials int
	// Seed makes the sweep reproducible.
	Seed uint64
	// Profile fixes channels and receiver.
	Profile Profile
}

// profileSpec folds a Profile into a scenario spec — the bridge the
// classic wrappers use. Profile values are explicit by construction, so
// the zero-means-default sentinels are disarmed via NoAGC/NoSNRDefault:
// a literal 0 AGC fraction or 0 dB band keeps its pre-engine meaning.
func profileSpec(p Profile, s scenario.Spec) scenario.Spec {
	s.Channel.SNRLodB, s.Channel.SNRHidB = p.SNRLodB, p.SNRHidB
	s.Channel.NoSNRDefault = true
	s.Channel.AGCNoiseFraction = p.AGCNoiseFraction
	s.Channel.NoAGC = p.AGCNoiseFraction == 0
	s.Workload.MessageBits = p.MessageBits
	if p.CRC == bits.CRC16 {
		s.Decode.CRC = "crc16"
	} else {
		s.Decode.CRC = "crc5"
	}
	return s
}

// CompareDataPhase runs Buzz, TDMA and CDMA on identical channels and
// messages, trial by trial — the experiment behind Fig. 10 (transfer
// time) and Fig. 11 (message errors). It is a thin wrapper over the
// scenario engine: a static spec with all three schemes. The golden
// tests pin that this wrapping reproduces the pre-engine results byte
// for byte.
func CompareDataPhase(cfg DataPhaseConfig) ([]SchemeOutcome, error) {
	if cfg.K <= 0 || cfg.Trials <= 0 {
		return nil, fmt.Errorf("sim: K and Trials must be positive, got %d/%d", cfg.K, cfg.Trials)
	}
	out, err := Run(profileSpec(cfg.Profile, scenario.Spec{
		Name:     "data-phase-comparison",
		Trials:   cfg.Trials,
		Seed:     cfg.Seed,
		Workload: scenario.WorkloadSpec{K: cfg.K},
		Decode:   scenario.DecodeSpec{Restarts: 2, MaxSlots: 40 * cfg.K},
		Schemes:  []string{scenario.SchemeBuzz, scenario.SchemeTDMA, scenario.SchemeCDMA},
	}))
	if err != nil {
		return nil, err
	}
	return out.Schemes, nil
}

// ChallengingBand is one x-axis point of Fig. 12.
type ChallengingBand struct {
	// LodB and HidB label the channel-quality band.
	LodB, HidB float64
}

// PaperBands are the Fig. 12 x-axis bands, best to worst.
var PaperBands = []ChallengingBand{
	{19, 26}, {15, 22}, {6, 14}, {3, 15}, {4, 12},
}

// ChallengingOutcome is one Fig. 12 data point.
type ChallengingOutcome struct {
	Band ChallengingBand
	// BuzzDecoded / TDMADecoded are mean correctly delivered messages
	// (of K).
	BuzzDecoded, TDMADecoded float64
	// BuzzRate is Buzz's mean aggregate bits/symbol; TDMARate is 1 by
	// construction while TDMA transmits.
	BuzzRate, TDMARate float64
}

// RunChallenging reproduces Fig. 12: K = 4 tags pushed through
// progressively worse channel-quality bands; Buzz adapts its rate below
// 1 bit/symbol where TDMA starts losing messages outright. Each band is
// one static scenario spec with the buzz and tdma schemes.
func RunChallenging(trials int, seed uint64, bands []ChallengingBand) ([]ChallengingOutcome, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("sim: trials must be positive")
	}
	const k = 4
	profile := DefaultProfile()
	var out []ChallengingOutcome
	for bi, band := range bands {
		spec := profileSpec(profile, scenario.Spec{
			Name:     "challenging-band",
			Trials:   trials,
			Seed:     seed + uint64(bi)*0x9E37,
			Workload: scenario.WorkloadSpec{K: k},
			Decode:   scenario.DecodeSpec{Restarts: 3, MaxSlots: 600},
			Schemes:  []string{scenario.SchemeBuzz, scenario.SchemeTDMA},
		})
		spec.Channel.SNRLodB, spec.Channel.SNRHidB = band.LodB, band.HidB
		res, err := Run(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, ChallengingOutcome{
			Band:        band,
			BuzzDecoded: res.Schemes[0].DeliveredCorrect.Mean,
			TDMADecoded: res.Schemes[1].DeliveredCorrect.Mean,
			BuzzRate:    res.Schemes[0].BitsPerSymbol.Mean,
			TDMARate:    1,
		})
	}
	return out, nil
}

// EnergyOutcome is one Fig. 13 bar group: per-scheme energy per query at
// a starting voltage.
type EnergyOutcome struct {
	StartingVolts float64
	// BuzzMicroJ, TDMAMicroJ, CDMAMicroJ are mean per-tag, per-query
	// energies in microjoules.
	BuzzMicroJ, TDMAMicroJ, CDMAMicroJ float64
}

// RunEnergy reproduces Fig. 13: K = 8 tags answer repeated queries under
// each scheme; tallied switching and modulation events are priced by the
// voltage-scaled cost model and averaged per query.
func RunEnergy(trials int, seed uint64, voltages []float64) ([]EnergyOutcome, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("sim: trials must be positive")
	}
	const k = 8
	profile := DefaultProfile()
	root := prng.NewSource(seed)
	frameLen := profile.MessageBits + profile.CRC.Width()

	// Event tallies depend only on the protocols, not the voltage; the
	// voltage scales the pricing. Collect tallies once per trial.
	var buzzT, tdmaT, cdmaT energy.Tally
	tags := 0
	sc := scratch.Get()
	defer scratch.Put(sc)
	for trial := 0; trial < trials; trial++ {
		sc.Reset()
		setup := root.Fork(uint64(trial))
		msgs := profile.messages(k, setup)
		ch := profile.channel(k, setup)
		seeds := tagSeeds(k, setup)

		rb, err := ratedapt.Transfer(ratedapt.Config{
			Seeds:       seeds,
			SessionSalt: setup.Uint64(),
			CRC:         profile.CRC,
			Restarts:    2,
			MaxSlots:    40 * k,
			Scratch:     sc,
		}, msgs, ch, setup.Fork(1), setup.Fork(2))
		if err != nil {
			return nil, err
		}
		for i := 0; i < k; i++ {
			frame := bits.Message{Payload: msgs[i], Kind: profile.CRC}.Frame()
			sw := phy.SwitchCount(phy.OOKChips(frame))
			// Tags duty-cycle: between their participations they only
			// clock the participation PRNG, which the awake tally
			// ignores as negligible next to modulation.
			buzzT.Add(energy.Tally{
				Switches:   rb.Participation[i] * sw,
				ActiveBits: float64(rb.Participation[i] * frameLen),
			})
		}

		rt, err := tdma.Run(tdma.Config{CRC: profile.CRC, UseMiller: true}, msgs, ch, setup.Fork(3))
		if err != nil {
			return nil, err
		}
		for i := 0; i < k; i++ {
			tdmaT.Add(energy.Tally{
				Switches:   rt.SwitchCounts[i],
				ActiveBits: float64(frameLen),
			})
		}

		rc, err := cdma.Run(cdma.Config{CRC: profile.CRC}, msgs, ch, setup.Fork(4))
		if err != nil {
			return nil, err
		}
		for i := 0; i < k; i++ {
			cdmaT.Add(energy.Tally{
				Switches:   rc.SwitchCounts[i],
				ActiveBits: float64(frameLen * rc.SpreadingFactor),
			})
		}
		tags += k
	}

	var out []EnergyOutcome
	for _, v := range voltages {
		cost := energy.CostAtVoltage(energy.DefaultCost(), v)
		out = append(out, EnergyOutcome{
			StartingVolts: v,
			BuzzMicroJ:    buzzT.Joules(cost) / float64(tags) * 1e6,
			TDMAMicroJ:    tdmaT.Joules(cost) / float64(tags) * 1e6,
			CDMAMicroJ:    cdmaT.Joules(cost) / float64(tags) * 1e6,
		})
	}
	return out, nil
}

// IdentificationOutcome is one Fig. 14 data point.
type IdentificationOutcome struct {
	K int
	// BuzzMillis, FSAMillis, FSAKnownKMillis and BTreeMillis are mean
	// identification times (the binary tree is the §11 related-work
	// alternative to FSA, included for context).
	BuzzMillis, FSAMillis, FSAKnownKMillis, BTreeMillis float64
	// BuzzIdentified is the mean fraction of tags Buzz identified
	// (duplicate temporary ids make the occasional tag unidentifiable
	// until a retry, as in the paper).
	BuzzIdentified float64
}

// RunIdentification reproduces Fig. 14: identification time versus K for
// Buzz's compressive-sensing protocol, plain Framed Slotted Aloha, and
// FSA fed Buzz's K estimate.
func RunIdentification(trials int, seed uint64, ks []int) ([]IdentificationOutcome, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("sim: trials must be positive")
	}
	profile := DefaultProfile()
	var out []IdentificationOutcome
	for _, k := range ks {
		k := k
		type row struct{ buzzMs, fsaMs, fsakMs, btreeMs, identified float64 }
		rows := make([]row, trials)
		err := forEachTrial(trials, func(trial int, res *engine.Resources) error {
			setup := scenario.TrialSource(seed+uint64(k)*0x51F1, trial)
			ch := profile.channel(k, setup)
			ids := make([]uint64, k)
			for i := range ids {
				ids[i] = setup.Uint64()
			}

			ident, err := identify.Run(identify.Config{Salt: setup.Uint64(), Scratch: res.Scratch}, ids, ch, setup.Fork(1))
			if err != nil {
				return err
			}
			// Buzz's cost: one opening Query downlink, the slot budget
			// uplink, one terminating signal (the reader just cuts its
			// carrier — free).
			var acct epc.TimeAccount
			acct.AddDownlink(epc.QueryBits)
			acct.AddTurnaround(1)
			acct.AddUplink(float64(ident.TotalSlots))
			rows[trial].buzzMs = acct.Millis()
			ok, _ := identify.Match(ident, ids)
			for _, b := range ok {
				if b {
					rows[trial].identified++
				}
			}

			rf, err := fsa.Run(fsa.Config{}, k, setup.Fork(2))
			if err != nil {
				return err
			}
			rows[trial].fsaMs = rf.Time.Millis()

			rk, err := fsa.Run(fsa.KnownKConfig(ident.KEstimate), k, setup.Fork(3))
			if err != nil {
				return err
			}
			// The known-K variant pays for Buzz's stage A on top.
			var kacct epc.TimeAccount
			kacct.AddUplink(float64(ident.KEstSlots))
			rows[trial].fsakMs = rk.Time.Millis() + kacct.Millis()

			rb, err := btree.Run(btree.Config{}, k, setup.Fork(4))
			if err != nil {
				return err
			}
			rows[trial].btreeMs = rb.Time.Millis()
			return nil
		})
		if err != nil {
			return nil, err
		}
		var buzzMs, fsaMs, fsakMs, btreeMs, identified float64
		for _, r := range rows {
			buzzMs += r.buzzMs
			fsaMs += r.fsaMs
			fsakMs += r.fsakMs
			btreeMs += r.btreeMs
			identified += r.identified
		}
		n := float64(trials)
		out = append(out, IdentificationOutcome{
			K:               k,
			BuzzMillis:      buzzMs / n,
			FSAMillis:       fsaMs / n,
			FSAKnownKMillis: fsakMs / n,
			BTreeMillis:     btreeMs / n,
			BuzzIdentified:  identified / (n * float64(k)),
		})
	}
	return out, nil
}

// DecodeProgress reproduces Fig. 9: one representative transfer of K
// tags with 96-bit messages (CRC-16), reported slot by slot. Trials are
// attempted until one decodes everything, mirroring the paper's choice
// of a complete trace to zoom in on.
func DecodeProgress(k int, seed uint64) ([]ratedapt.SlotResult, error) {
	profile := DefaultProfile()
	profile.MessageBits = 96
	profile.CRC = bits.CRC16
	root := prng.NewSource(seed)
	sc := scratch.Get()
	defer scratch.Put(sc)
	for attempt := 0; attempt < 20; attempt++ {
		sc.Reset()
		setup := root.Fork(uint64(attempt))
		msgs := profile.messages(k, setup)
		ch := profile.channel(k, setup)
		seeds := tagSeeds(k, setup)
		rb, err := ratedapt.Transfer(ratedapt.Config{
			Seeds:       seeds,
			SessionSalt: setup.Uint64(),
			CRC:         profile.CRC,
			Restarts:    2,
			MaxSlots:    40 * k,
			Scratch:     sc,
		}, msgs, ch, setup.Fork(1), setup.Fork(2))
		if err != nil {
			return nil, err
		}
		if rb.Lost() == 0 {
			return rb.Progress, nil
		}
	}
	return nil, fmt.Errorf("sim: no complete decode in 20 attempts")
}

// Headline computes the paper's summary numbers (§1, §10): the
// identification speedup, the data-phase throughput gain, and their
// product — the overall communication-efficiency improvement the
// abstract reports as 3.5×.
type HeadlineResult struct {
	IdentSpeedup   float64
	DataRateGain   float64
	OverallSpeedup float64
}

// RunHeadline averages identification and data-phase gains over the
// paper's tag counts K ∈ {4, 8, 12, 16} ("averaged across experiments
// with different numbers of concurrent tags", §1) into the abstract's
// headline ratios.
func RunHeadline(trials int, seed uint64) (HeadlineResult, error) {
	ks := []int{4, 8, 12, 16}
	ident, err := RunIdentification(trials, seed, ks)
	if err != nil {
		return HeadlineResult{}, err
	}
	var identSpeedup, dataGain float64
	for i, k := range ks {
		identSpeedup += ident[i].FSAMillis / ident[i].BuzzMillis
		data, err := CompareDataPhase(DataPhaseConfig{K: k, Trials: trials, Seed: seed + uint64(k), Profile: DefaultProfile()})
		if err != nil {
			return HeadlineResult{}, err
		}
		dataGain += data[1].TransferMillis.Mean / data[0].TransferMillis.Mean
	}
	identSpeedup /= float64(len(ks))
	dataGain /= float64(len(ks))
	// Overall: weight identification and data phases per the EPC-mode
	// split the paper cites (identification is 30-60% of total time in
	// Gen-2; take the midpoint 45%).
	const identShare = 0.45
	overall := 1 / (identShare/identSpeedup + (1-identShare)/dataGain)
	return HeadlineResult{
		IdentSpeedup:   identSpeedup,
		DataRateGain:   dataGain,
		OverallSpeedup: overall,
	}, nil
}
