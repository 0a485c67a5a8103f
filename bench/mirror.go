package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/baseline/btree"
	"repro/internal/baseline/cdma"
	"repro/internal/baseline/fsa"
	"repro/internal/baseline/tdma"
	"repro/internal/bits"
	"repro/internal/bp"
	"repro/internal/channel"
	"repro/internal/epc"
	"repro/internal/identify"
	"repro/internal/prng"
	"repro/internal/ratedapt"
	"repro/internal/scenario"
	"repro/internal/scratch"
	"repro/internal/sim"
	"repro/internal/stats"
)

// trialDigest hashes one trial's decode outcome — slots used, then per
// roster tag whether it verified and, if so, the delivered payload — so
// the untraced and traced passes can be compared without keeping
// payloads.
func trialDigest(slots int, verified []bool, payload func(i int) bits.Vector) uint64 {
	b := binary.LittleEndian.AppendUint64(nil, uint64(slots))
	for i, ok := range verified {
		if !ok {
			b = append(b, 0)
			continue
		}
		b = append(b, 1)
		for _, bit := range payload(i) {
			if bit {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// combine folds per-trial digests into one op digest, in trial order.
func combine(ds []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, d := range ds {
		binary.LittleEndian.PutUint64(b[:], d)
		h.Write(b[:])
	}
	return h.Sum64()
}

// tally counts decode outcomes: slots used, tags offered, payloads
// delivered (verified), and the delivered payloads that differ from the
// sent message.
type tally struct{ slots, offered, delivered, wrong int }

func (t *tally) add(o tally) {
	t.slots += o.slots
	t.offered += o.offered
	t.delivered += o.delivered
	t.wrong += o.wrong
}

// trialOutcome is one trial's decode result.
type trialOutcome struct {
	tally
	digest uint64
	cost   bp.DecodeCost
}

// opOutcome is what one op produced, in the form both passes can give.
type opOutcome struct {
	tally
	digest   uint64
	cost     bp.DecodeCost
	headline sim.HeadlineResult
}

// mismatch describes how a traced outcome differs from the untraced one,
// or returns "" when they agree.
func mismatch(untraced, traced opOutcome, withCost bool) string {
	switch {
	case untraced.digest != traced.digest:
		return fmt.Sprintf("outcome digest %016x, traced %016x", untraced.digest, traced.digest)
	case untraced.tally != traced.tally:
		return fmt.Sprintf("slots/delivered/wrong %d/%d/%d, traced %d/%d/%d",
			untraced.slots, untraced.delivered, untraced.wrong, traced.slots, traced.delivered, traced.wrong)
	case untraced.headline != traced.headline:
		return fmt.Sprintf("headline %+v, traced %+v", untraced.headline, traced.headline)
	case withCost && untraced.cost != traced.cost:
		return fmt.Sprintf("decode cost %+v, traced %+v", untraced.cost, traced.cost)
	}
	return ""
}

// mirror is the traced replay. It replays an untraced op through the
// program's public calls — the same calls, in the same order and with
// the same random draws, that engine/replay and a buzzd session make —
// with one span around each call. One scratch arena and one decoder
// session are reused across trials, as the engine's pooled resources
// are. Counts are exact and machine-independent.
type mirror struct {
	tr   *tracer
	sc   *scratch.Scratch
	sess *bp.Session

	slots, joined, colliders, present, accepted, rowsRetired int64
	cost                                                     bp.DecodeCost
	identSlots                                               int64

	// cycles, when non-nil, collects each slot's daemon-side cycle
	// (advance, append, decode, finish) in microseconds.
	cycles []float64

	// scale brings the pass's span times to the reference host speed
	// (see probe.go); report applies it to every time it sets.
	scale float64
}

func newMirror(tr *tracer) *mirror {
	return &mirror{tr: tr, sc: scratch.New(), sess: bp.GetSession(), scale: 1}
}

func (m *mirror) close() {
	m.sess.Close()
}

// trialAir is the part of a trial's setup the headline's baselines reuse.
type trialAir struct {
	setup *prng.Source
	msgs  []bits.Vector
	ch    *channel.Model
	crc   bits.CRCKind
}

// trial replays one scenario trial: the setup draws of sim.Run and
// engine/replay, a ratedapt.Stream opened as buzzd opens one, and the
// slot loop of ratedapt.DynamicLane split into its public calls.
func (m *mirror) trial(spec scenario.Spec, rost scenario.Roster, trial int) (trialOutcome, *trialAir, error) {
	tr := m.tr
	tr.begin(spanSetup)
	crc, err := spec.CRCKind()
	if err != nil {
		tr.end()
		return trialOutcome{}, nil, err
	}
	windows := rost.Windows
	kTot := len(windows)
	maxSlots := spec.Decode.MaxSlots
	setup := prng.NewSource(prng.Mix2(spec.Seed, uint64(trial)))
	msgs := make([]bits.Vector, kTot)
	for i := range msgs {
		msgs[i] = bits.Random(setup, spec.Workload.MessageBits)
	}
	ch := channel.NewFromSNRBand(kTot, spec.Channel.SNRLodB, spec.Channel.SNRHidB, setup)
	ch.AGCNoiseFraction = spec.Channel.AGCNoiseFraction
	seeds := make([]uint64, kTot)
	for i := range seeds {
		seeds[i] = setup.Uint64()
	}
	salt := setup.Uint64()
	var procSeed uint64
	if spec.Dynamic() {
		procSeed = setup.Uint64()
	}
	proc := spec.NewProcessRoster(ch, procSeed, rost.Rho)
	noise := setup.Fork(1)
	decodeSrc := setup.Fork(2)

	var pol ratedapt.WindowPolicy
	switch spec.Decode.Window {
	case scenario.WindowAuto:
		pol = ratedapt.AutoWindow()
	case scenario.WindowFixed:
		pol = ratedapt.FixedWindow(spec.Decode.DecodeWindow)
	case scenario.WindowPerTag:
		pol = ratedapt.PerTagWindow(spec.Decode.WindowSoft)
	}
	win := pol.EffectiveSlots(proc.CoherenceSlots(), maxSlots)
	var wins, winTag0 []int
	confirm := 0
	k0 := 0
	for i := range windows {
		if windows[i].ArriveSlot <= 1 {
			k0++
		}
	}
	if spec.Decode.Window == scenario.WindowPerTag {
		wins = ratedapt.ResolveTagWindows(proc, maxSlots, kTot)
		for _, w := range wins {
			confirm = max(confirm, w)
		}
		winTag0 = wins[:k0]
	}
	frames := make([]bits.Vector, kTot)
	for i := range frames {
		frames[i] = bits.Message{Payload: msgs[i], Kind: crc}.Frame()
	}
	frameLen := spec.Workload.MessageBits + crc.Width()
	obs := make([]complex128, frameLen)
	activeIdx := make([]int, kTot)
	bitIdx := make([]int, kTot)
	tagPow := make([]float64, kTot)
	gone := make([]bool, kTot)
	tr.end()

	tr.begin(spanModel)
	dm := proc.ModelAt(1)
	tr.end()
	tr.begin(spanOpen)
	st, err := ratedapt.OpenStream(ratedapt.StreamConfig{
		SessionSalt:   salt,
		CRC:           crc,
		Restarts:      spec.Decode.Restarts,
		Parallelism:   1,
		MessageBits:   spec.Workload.MessageBits,
		MaxSlots:      maxSlots,
		WindowSlots:   win,
		WindowTag:     winTag0,
		WindowSoft:    spec.Decode.WindowSoft,
		ConfirmWindow: confirm,
		Seeds:         seeds[:k0],
		Taps:          dm.Taps[:k0],
		RosterCap:     kTot,
		DecodeSrc:     decodeSrc,
		Scratch:       m.sc,
		Session:       m.sess,
	})
	tr.end()
	if err != nil {
		return trialOutcome{}, nil, err
	}
	defer func() {
		st.Close()
		m.sc.Reset()
		m.sess.Reset()
	}()

	out := trialOutcome{tally: tally{offered: kTot}}
	nextArr, departed := k0, 0
	powStale := true
	var ev ratedapt.SlotEvents
	for slot := 1; slot <= maxSlots && !(nextArr == kTot && st.Done()); slot++ {
		tr.begin(spanModel)
		mdl := proc.ModelAt(slot)
		tr.end()

		// Population events, as the replay client derives them from the
		// roster; each departure is listed once.
		ev.Arrivals = ev.Arrivals[:0]
		ev.Departs = ev.Departs[:0]
		ev.Retap = nil
		for nextArr < kTot && max(windows[nextArr].ArriveSlot, 1) <= slot {
			w := 0
			if wins != nil {
				w = wins[nextArr]
			}
			ev.Arrivals = append(ev.Arrivals, ratedapt.StreamArrival{Seed: seeds[nextArr], Tap: mdl.Taps[nextArr], Window: w})
			nextArr++
			powStale = true
		}
		for i := 0; i < nextArr; i++ {
			if d := windows[i].DepartSlot; d > 0 && slot >= d && !gone[i] {
				gone[i] = true
				departed++
				ev.Departs = append(ev.Departs, i)
			}
		}
		if !proc.Static() {
			ev.Retap = mdl.Taps[:nextArr]
		}

		tr.begin(spanAdvance)
		row, err := st.Advance(ev)
		cycle := tr.end()
		if err != nil {
			return trialOutcome{}, nil, err
		}
		tr.begin(spanSynth)
		if powStale || !proc.Static() {
			for i := 0; i < nextArr; i++ {
				h := mdl.Taps[i]
				tagPow[i] = real(h)*real(h) + imag(h)*imag(h)
			}
			powStale = false
		}
		ratedapt.SynthAir(mdl, frames, row, obs, activeIdx, bitIdx, tagPow, noise)
		tr.end()
		tr.begin(spanAppend)
		err = st.BeginIngest(obs)
		cycle += tr.end()
		if err != nil {
			return trialOutcome{}, nil, err
		}
		tr.begin(spanDecode)
		j := st.SlotJob()
		j.S.DecodeSlot(j.Slot, j.Locked, j.Base, j.MinMargin, j.Ambiguous)
		cycle += tr.end()
		tr.begin(spanFinish)
		step, err := st.FinishIngest()
		cycle += tr.end()
		if err != nil {
			return trialOutcome{}, nil, err
		}
		if m.cycles != nil {
			m.cycles = append(m.cycles, float64(cycle)/1e3)
		}
		out.slots = slot
		m.slots++
		m.joined += int64(nextArr)
		m.present += int64(nextArr - departed)
		m.colliders += int64(step.Colliders)
		m.accepted += int64(step.NewlyAccepted)
		m.rowsRetired += int64(step.RowsRetired)
	}
	out.cost = st.TakeDecodeCost()
	m.cost.Add(out.cost)

	tr.begin(spanScore)
	verified := make([]bool, kTot)
	copy(verified, st.Verified())
	got := st.Frames()
	payload := func(i int) bits.Vector { return bits.PayloadOf(got[i], crc) }
	for i, ok := range verified {
		if !ok {
			continue
		}
		out.delivered++
		if !payload(i).Equal(msgs[i]) {
			out.wrong++
		}
	}
	out.digest = trialDigest(out.slots, verified, payload)
	tr.end()
	return out, &trialAir{setup: setup, msgs: msgs, ch: ch, crc: crc}, nil
}

// scenarioOp replays one sim.Run call: roster resolution, then every
// trial in order. trialMs receives each trial's wall time.
func (m *mirror) scenarioOp(spec scenario.Spec, trialMs *[]float64) (opOutcome, error) {
	tr := m.tr
	tr.begin(spanResolve)
	rost, err := spec.ResolveRoster()
	tr.end()
	if err != nil {
		return opOutcome{}, err
	}
	var out opOutcome
	ds := make([]uint64, spec.Trials)
	for t := 0; t < spec.Trials; t++ {
		tr.trial = int32(t)
		tr.begin(spanTrial)
		o, _, err := m.trial(spec, rost, t)
		d := tr.end()
		if err != nil {
			return opOutcome{}, fmt.Errorf("trial %d: %w", t, err)
		}
		*trialMs = append(*trialMs, float64(d)/1e6)
		out.add(o.tally)
		out.cost.Add(o.cost)
		ds[t] = o.digest
	}
	out.digest = combine(ds)
	return out, nil
}

// headlineKs are sim.RunHeadline's tag counts.
var headlineKs = []int{4, 8, 12, 16}

// headlineOp replays sim.RunHeadline(trials, seed): sim.RunIdentification
// over headlineKs, then sim.CompareDataPhase at each K, with the data
// phase's Buzz decode on a ratedapt.Stream (byte-identical to the static
// lane sim.Run uses; the result check below holds it to that).
func (m *mirror) headlineOp(trials int, seed uint64, trialMs *[]float64) (opOutcome, error) {
	tr := m.tr
	p := sim.DefaultProfile()
	frameMillis := func(bitSlots int) float64 { return epc.UplinkMicros(float64(bitSlots)) / 1000 }
	var out opOutcome

	type identMeans struct{ buzz, fsa float64 }
	ident := make([]identMeans, len(headlineKs))
	for ki, k := range headlineKs {
		var buzzMs, fsaMs float64
		for t := 0; t < trials; t++ {
			tr.trial = int32(t)
			tr.begin(spanTrial)
			setup := prng.NewSource(prng.Mix2(seed+uint64(k)*0x51F1, uint64(t)))
			tr.begin(spanSetup)
			ch := channel.NewFromSNRBand(k, p.SNRLodB, p.SNRHidB, setup)
			ch.AGCNoiseFraction = p.AGCNoiseFraction
			ids := make([]uint64, k)
			for i := range ids {
				ids[i] = setup.Uint64()
			}
			salt := setup.Uint64()
			noise := setup.Fork(1)
			tr.end()

			tr.begin(spanIdentify)
			res, err := identify.Run(identify.Config{Salt: salt, Scratch: m.sc}, ids, ch, noise)
			if err == nil {
				identify.Match(res, ids)
			}
			tr.end()
			if err != nil {
				tr.end()
				return opOutcome{}, err
			}
			m.identSlots += int64(res.TotalSlots)
			var acct epc.TimeAccount
			acct.AddDownlink(epc.QueryBits)
			acct.AddTurnaround(1)
			acct.AddUplink(float64(res.TotalSlots))
			buzzMs += acct.Millis()

			tr.begin(spanFSA)
			rf, err := fsa.Run(fsa.Config{}, k, setup.Fork(2))
			if err == nil {
				_, err = fsa.Run(fsa.KnownKConfig(res.KEstimate), k, setup.Fork(3))
			}
			tr.end()
			if err != nil {
				tr.end()
				return opOutcome{}, err
			}
			fsaMs += rf.Time.Millis()
			tr.begin(spanBTree)
			_, err = btree.Run(btree.Config{}, k, setup.Fork(4))
			tr.end()
			m.sc.Reset()
			*trialMs = append(*trialMs, float64(tr.end())/1e6)
			if err != nil {
				return opOutcome{}, err
			}
		}
		n := float64(trials)
		ident[ki] = identMeans{buzz: buzzMs / n, fsa: fsaMs / n}
	}

	var identSpeedup, dataGain float64
	for ki, k := range headlineKs {
		identSpeedup += ident[ki].fsa / ident[ki].buzz
		crcName := "crc5"
		if p.CRC == bits.CRC16 {
			crcName = "crc16"
		}
		spec := scenario.Spec{
			Name:   "data-phase-comparison",
			Trials: trials,
			Seed:   seed + uint64(k),
			Channel: scenario.ChannelSpec{
				SNRLodB: p.SNRLodB, SNRHidB: p.SNRHidB, NoSNRDefault: true,
				AGCNoiseFraction: p.AGCNoiseFraction, NoAGC: p.AGCNoiseFraction == 0,
			},
			Workload: scenario.WorkloadSpec{K: k, MessageBits: p.MessageBits},
			Decode:   scenario.DecodeSpec{Restarts: 2, MaxSlots: 40 * k, CRC: crcName},
			Schemes:  []string{scenario.SchemeBuzz, scenario.SchemeTDMA, scenario.SchemeCDMA},
		}.WithDefaults()
		tr.begin(spanResolve)
		rost, err := spec.ResolveRoster()
		tr.end()
		if err != nil {
			return opOutcome{}, err
		}
		frameLen := p.MessageBits + p.CRC.Width()
		buzzMs := make([]float64, trials)
		tdmaMs := make([]float64, trials)
		for t := 0; t < trials; t++ {
			tr.trial = int32(t)
			tr.begin(spanTrial)
			o, air, err := m.trial(spec, rost, t)
			if err != nil {
				tr.end()
				return opOutcome{}, fmt.Errorf("K=%d trial %d: %w", k, t, err)
			}
			buzzMs[t] = frameMillis(o.slots * frameLen)
			tr.begin(spanTDMA)
			rt, err := tdma.Run(tdma.Config{CRC: air.crc, UseMiller: true}, air.msgs, air.ch, air.setup.Fork(3))
			tr.end()
			if err == nil {
				tdmaMs[t] = frameMillis(rt.BitSlots)
				tr.begin(spanCDMA)
				_, err = cdma.Run(cdma.Config{CRC: air.crc}, air.msgs, air.ch, air.setup.Fork(4))
				tr.end()
			}
			*trialMs = append(*trialMs, float64(tr.end())/1e6)
			if err != nil {
				return opOutcome{}, err
			}
		}
		dataGain += stats.Mean(tdmaMs) / stats.Mean(buzzMs)
	}
	identSpeedup /= float64(len(headlineKs))
	dataGain /= float64(len(headlineKs))
	const identShare = 0.45
	out.headline = sim.HeadlineResult{
		IdentSpeedup:   identSpeedup,
		DataRateGain:   dataGain,
		OverallSpeedup: 1 / (identShare/identSpeedup + (1-identShare)/dataGain),
	}
	out.digest = headlineDigest(out.headline)
	return out, nil
}

func headlineDigest(h sim.HeadlineResult) uint64 {
	return combine([]uint64{math.Float64bits(h.IdentSpeedup), math.Float64bits(h.DataRateGain), math.Float64bits(h.OverallSpeedup)})
}

// setCost reports the exact decode-cost counters per decoded slot.
func setCost(r *result, c bp.DecodeCost, slots int64) {
	n := float64(max(slots, 1))
	r.set("bp.descent_passes_per_slot", "count", float64(c.DescentPasses)/n)
	r.set("bp.restart_passes_per_slot", "count", float64(c.RestartPasses)/n)
	r.set("bp.bit_flips_per_slot", "count", float64(c.Flips)/n)
	r.set("bp.restart_frac", "1", float64(c.RestartPasses)/float64(max(c.DescentPasses+c.RestartPasses, 1)))
}

// report sets the per-layer metrics of a traced pass: each layer's self
// time per op or per decoded slot, the exact counts, the trial times,
// and the share of traced wall time the leaf spans cover. ops is the
// workload's op count and rootNs the summed wall time of the outermost
// traced spans (ops, or trials on buzzd-loopback).
func (m *mirror) report(r *result, ops int, rootNs int64, trialMs, trialMax []float64) {
	tr := m.tr
	perOp := func(k spanKind) float64 { return m.scale * float64(tr.self[k]) / 1e6 / float64(max(ops, 1)) }
	slots := float64(max(m.slots, 1))
	perSlot := func(k spanKind) float64 { return m.scale * float64(tr.self[k]) / 1e3 / slots }

	r.set("scenario.resolve_ms", "ms", perOp(spanResolve))
	r.set("sim.setup_ms", "ms", perOp(spanSetup))
	r.set("sim.score_ms", "ms", perOp(spanScore))
	r.set("ratedapt.open_ms", "ms", perOp(spanOpen))
	r.set("channel.model_us_per_slot", "us", perSlot(spanModel))
	r.set("ratedapt.advance_us_per_slot", "us", perSlot(spanAdvance))
	r.set("ratedapt.synth_us_per_slot", "us", perSlot(spanSynth))
	r.set("ratedapt.finish_us_per_slot", "us", perSlot(spanFinish))
	r.set("bp.append_us_per_slot", "us", perSlot(spanAppend))
	r.set("bp.decode_us_per_slot", "us", perSlot(spanDecode))
	passes := m.cost.DescentPasses + m.cost.RestartPasses
	r.set("bp.decode_ns_per_pass", "ns", m.scale*float64(tr.self[spanDecode])/float64(max(passes, 1)))
	setCost(r, m.cost, m.slots)
	r.set("ratedapt.joined_per_slot", "count", float64(m.joined)/slots)
	r.set("ratedapt.colliders_per_slot", "count", float64(m.colliders)/slots)
	r.set("ratedapt.present_frac", "1", float64(m.present)/float64(max(m.joined, 1)))
	r.set("ratedapt.accepted_per_slot", "count", float64(m.accepted)/slots)
	r.set("ratedapt.rows_retired_per_slot", "count", float64(m.rowsRetired)/slots)
	r.set("sim.slots_per_op", "count", float64(m.slots)/float64(max(ops, 1)))

	// Only headline runs identification and the baselines.
	if calls := tr.calls[spanIdentify]; calls > 0 {
		r.set("identify.run_ms", "ms", perOp(spanIdentify))
		r.set("identify.calls_per_op", "count", float64(calls)/float64(max(ops, 1)))
		r.set("identify.slots_per_call", "count", float64(m.identSlots)/float64(calls))
	}
	for _, b := range []struct {
		k    spanKind
		name string
	}{{spanTDMA, "tdma"}, {spanCDMA, "cdma"}, {spanFSA, "fsa"}, {spanBTree, "btree"}} {
		if tr.calls[b.k] > 0 {
			r.set("baseline."+b.name+"_ms", "ms", perOp(b.k))
		}
	}

	sort.Float64s(trialMs)
	sort.Float64s(trialMax)
	p50, _ := nearestRank(trialMs, 0.5)
	r.set("sim.trial_ms_p50", "ms", m.scale*p50)
	r.Samples["sim.trial_ms_p50"] = len(trialMs)
	mx, _ := nearestRank(trialMax, 0.5)
	r.set("sim.trial_ms_max", "ms", m.scale*mx)
	r.Samples["sim.trial_ms_max"] = len(trialMax)
	r.set("trace.coverage_frac", "1", float64(tr.leafSelf())/float64(max(rootNs, 1)))
	if tr.dropped > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("span log kept the first %d spans and dropped %d", len(tr.log), tr.dropped))
	}
}
