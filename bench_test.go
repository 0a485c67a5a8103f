// Package repro's root bench harness: one benchmark per table and figure
// of the paper's evaluation, plus ablation benches for the design
// choices DESIGN.md calls out. Each benchmark prints the regenerated
// series through b.Log on the first iteration (visible with -v) and
// reports domain metrics via b.ReportMetric, so `go test -bench=.`
// doubles as the reproduction harness. cmd/figures prints the same
// series as readable tables.
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/baseline/cdma"
	"repro/internal/baseline/fsa"
	"repro/internal/bits"
	"repro/internal/channel"
	"repro/internal/cs"
	"repro/internal/dsp"
	"repro/internal/epc"
	"repro/internal/identify"
	"repro/internal/phy"
	"repro/internal/prng"
	"repro/internal/ratedapt"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// --- Tables 1 & 2 -----------------------------------------------------------

func BenchmarkTable12_PatternToy(b *testing.B) {
	var opt1, opt2 float64
	for i := 0; i < b.N; i++ {
		opt1 = identify.ToyOption1FailureProbability()
		opt2 = identify.ToyOption2FailureProbability()
	}
	b.ReportMetric(opt1, "P-fail-option1")
	b.ReportMetric(opt2, "P-fail-option2")
}

// --- Fig. 2 & 3: collision levels and constellations ------------------------

func BenchmarkFig2_CollisionLevels(b *testing.B) {
	var single, double int
	for i := 0; i < b.N; i++ {
		single, double = trace.CollisionLevels(uint64(i))
	}
	b.ReportMetric(float64(single), "levels-1tag")
	b.ReportMetric(float64(double), "levels-2tags")
}

func BenchmarkFig3_Constellation(b *testing.B) {
	var n int
	var minDist float64
	for i := 0; i < b.N; i++ {
		pts, d := trace.Constellation(2, uint64(i))
		n, minDist = len(pts), d
	}
	b.ReportMetric(float64(n), "points-2tags")
	b.ReportMetric(minDist, "min-distance")
}

// --- Fig. 7: synchronization offsets ----------------------------------------

func BenchmarkFig7_SyncOffsetCDF(b *testing.B) {
	src := prng.NewSource(7)
	var p90 float64
	for i := 0; i < b.N; i++ {
		draws := make([]float64, 500)
		for j := range draws {
			draws[j] = phy.MooOffsets.Draw(src)
		}
		p90 = stats.Percentile(draws, 90)
	}
	b.ReportMetric(p90, "moo-p90-us")
}

// --- Fig. 8: clock drift -----------------------------------------------------

func BenchmarkFig8_ClockDrift(b *testing.B) {
	var uncorr, corr float64
	for i := 0; i < b.N; i++ {
		uncorr, corr = trace.DriftAlignment(uint64(i))
	}
	b.ReportMetric(uncorr, "smear-uncorrected")
	b.ReportMetric(corr, "smear-corrected")
}

// --- Fig. 9: decode progress --------------------------------------------------

func BenchmarkFig9_DecodeProgress(b *testing.B) {
	b.ReportAllocs()
	var peak, final float64
	for i := 0; i < b.N; i++ {
		prog, err := sim.DecodeProgress(14, uint64(17+i))
		if err != nil {
			b.Fatal(err)
		}
		peak = 0
		for _, p := range prog {
			if p.BitsPerSymbol > peak {
				peak = p.BitsPerSymbol
			}
		}
		final = prog[len(prog)-1].BitsPerSymbol
	}
	b.ReportMetric(peak, "peak-bits/sym")
	b.ReportMetric(final, "final-bits/sym")
}

// --- Fig. 10 & 11: transfer time and errors -----------------------------------

func benchDataPhase(b *testing.B, k int) {
	b.ReportAllocs()
	var buzzMs, tdmaMs, cdmaMs, buzzLost, tdmaLost, cdmaLost float64
	for i := 0; i < b.N; i++ {
		out, err := sim.CompareDataPhase(sim.DataPhaseConfig{
			K: k, Trials: 5, Seed: uint64(100 + i), Profile: sim.DefaultProfile(),
		})
		if err != nil {
			b.Fatal(err)
		}
		buzzMs, tdmaMs, cdmaMs = out[0].TransferMillis.Mean, out[1].TransferMillis.Mean, out[2].TransferMillis.Mean
		buzzLost, tdmaLost, cdmaLost = out[0].Undecoded.Mean, out[1].Undecoded.Mean, out[2].Undecoded.Mean
	}
	b.ReportMetric(buzzMs, "buzz-ms")
	b.ReportMetric(tdmaMs, "tdma-ms")
	b.ReportMetric(cdmaMs, "cdma-ms")
	b.ReportMetric(buzzLost, "buzz-lost")
	b.ReportMetric(tdmaLost, "tdma-lost")
	b.ReportMetric(cdmaLost, "cdma-lost")
}

func BenchmarkFig10_TransferTime_K4(b *testing.B)  { benchDataPhase(b, 4) }
func BenchmarkFig10_TransferTime_K8(b *testing.B)  { benchDataPhase(b, 8) }
func BenchmarkFig10_TransferTime_K12(b *testing.B) { benchDataPhase(b, 12) }
func BenchmarkFig10_TransferTime_K16(b *testing.B) { benchDataPhase(b, 16) }

// Fig. 11 shares the Fig. 10 sweep; this alias keeps the per-figure index
// one-to-one with bench targets.
func BenchmarkFig11_MessageErrors(b *testing.B) { benchDataPhase(b, 16) }

// --- Fig. 12: challenging channels ---------------------------------------------

func BenchmarkFig12_ChallengingChannels(b *testing.B) {
	var worstBuzzDecoded, worstTDMADecoded, worstBuzzRate float64
	for i := 0; i < b.N; i++ {
		out, err := sim.RunChallenging(4, uint64(7+i), []sim.ChallengingBand{{LodB: 19, HidB: 26}, {LodB: 4, HidB: 12}})
		if err != nil {
			b.Fatal(err)
		}
		worst := out[len(out)-1]
		worstBuzzDecoded, worstTDMADecoded, worstBuzzRate = worst.BuzzDecoded, worst.TDMADecoded, worst.BuzzRate
	}
	b.ReportMetric(worstBuzzDecoded, "buzz-decoded-of-4")
	b.ReportMetric(worstTDMADecoded, "tdma-decoded-of-4")
	b.ReportMetric(worstBuzzRate, "buzz-bits/sym")
}

// --- Fig. 13: energy -------------------------------------------------------------

func BenchmarkFig13_Energy(b *testing.B) {
	var buzzUJ, tdmaUJ, cdmaUJ float64
	for i := 0; i < b.N; i++ {
		out, err := sim.RunEnergy(3, uint64(11+i), []float64{3})
		if err != nil {
			b.Fatal(err)
		}
		buzzUJ, tdmaUJ, cdmaUJ = out[0].BuzzMicroJ, out[0].TDMAMicroJ, out[0].CDMAMicroJ
	}
	b.ReportMetric(buzzUJ, "buzz-uJ")
	b.ReportMetric(tdmaUJ, "tdma-uJ")
	b.ReportMetric(cdmaUJ, "cdma-uJ")
}

// --- Fig. 14: identification -------------------------------------------------------

func BenchmarkFig14_Identification(b *testing.B) {
	b.ReportAllocs()
	var buzzMs, fsaMs, fsakMs float64
	for i := 0; i < b.N; i++ {
		out, err := sim.RunIdentification(3, uint64(13+i), []int{16})
		if err != nil {
			b.Fatal(err)
		}
		buzzMs, fsaMs, fsakMs = out[0].BuzzMillis, out[0].FSAMillis, out[0].FSAKnownKMillis
	}
	b.ReportMetric(buzzMs, "buzz-ms")
	b.ReportMetric(fsaMs, "fsa-ms")
	b.ReportMetric(fsakMs, "fsa-knownK-ms")
	b.ReportMetric(fsaMs/buzzMs, "speedup-x")
}

// --- Headline ---------------------------------------------------------------------

func BenchmarkHeadline_Overall(b *testing.B) {
	b.ReportAllocs()
	var res sim.HeadlineResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = sim.RunHeadline(3, uint64(19+i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.IdentSpeedup, "ident-speedup-x")
	b.ReportMetric(res.DataRateGain, "data-gain-x")
	b.ReportMetric(res.OverallSpeedup, "overall-x")
}

// --- Scenario engine ----------------------------------------------------------------

// benchScenario runs one declarative workload per iteration, stepping
// the seed; these cover the scenario-engine paths (block fading,
// Gauss–Markov retap, population churn with session growth).
func benchScenario(b *testing.B, spec scenario.Spec) {
	b.ReportAllocs()
	var lost, rate float64
	for i := 0; i < b.N; i++ {
		s := spec
		s.Seed = spec.Seed + uint64(i)
		out, err := sim.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		lost = out.Schemes[0].Undecoded.Mean
		rate = out.Schemes[0].BitsPerSymbol.Mean
	}
	b.ReportMetric(lost, "lost")
	b.ReportMetric(rate, "bits/sym")
}

func BenchmarkScenario_BlockFading_K8(b *testing.B) {
	benchScenario(b, scenario.Spec{
		Trials: 5, Seed: 4242,
		Workload: scenario.WorkloadSpec{K: 8},
		Channel: scenario.ChannelSpec{
			Kind: scenario.KindBlockFading, BlockLen: 32,
			SNRLodB: 14, SNRHidB: 30,
		},
	})
}

func BenchmarkScenario_GaussMarkov_K8(b *testing.B) {
	benchScenario(b, scenario.Spec{
		Trials: 5, Seed: 4242,
		Workload: scenario.WorkloadSpec{K: 8},
		Channel: scenario.ChannelSpec{
			Kind: scenario.KindGaussMarkov, Rho: 0.999,
			SNRLodB: 14, SNRHidB: 30,
		},
	})
}

// BenchmarkScenario_FastMobility_K8 is the coherence-windowed decode
// path end to end: Gauss–Markov drift at ρ = 0.9 with the auto window
// — per-slot RetapTags rebuilds plus per-slot Session.Retire. Transfers
// in this regime legitimately run long (margins are drift-limited), so
// the bench is expected to sit well above the slow-drift scenarios.
func BenchmarkScenario_FastMobility_K8(b *testing.B) {
	benchScenario(b, scenario.Spec{
		Trials: 5, Seed: 2026,
		Workload: scenario.WorkloadSpec{K: 8},
		Channel: scenario.ChannelSpec{
			Kind: scenario.KindGaussMarkov, Rho: 0.9,
			SNRLodB: 14, SNRHidB: 30,
		},
		Decode: scenario.DecodeSpec{MaxSlots: 320, Window: scenario.WindowAuto},
	})
}

// BenchmarkScenario_MixedMobility_K8 is the per-tag-windowed decode
// path end to end: half the roster parked (ρ = 1), half moving at
// ρ = 0.9, each mover retiring its own rows (Session.RetireTag) while
// the parked tags keep their whole history. Like fast-mobility, the
// drift-limited transfers legitimately run long.
func BenchmarkScenario_MixedMobility_K8(b *testing.B) {
	benchScenario(b, scenario.Spec{
		Trials: 5, Seed: 2026,
		Workload: scenario.WorkloadSpec{K: 8},
		Channel: scenario.ChannelSpec{
			Kind:      scenario.KindGaussMarkov,
			PerTagRho: []float64{1, 1, 1, 1, 0.9, 0.9, 0.9, 0.9},
			SNRLodB:   14, SNRHidB: 30,
		},
		Decode: scenario.DecodeSpec{MaxSlots: 320, Window: scenario.WindowPerTag},
	})
}

func BenchmarkScenario_PopulationChurn(b *testing.B) {
	benchScenario(b, scenario.Spec{
		Trials: 5, Seed: 4242,
		Workload: scenario.WorkloadSpec{
			K: 6,
			Population: []scenario.PopulationEvent{
				{Slot: 5, Arrive: 2},
				{Slot: 9, Depart: 1},
			},
		},
		Channel: scenario.ChannelSpec{
			Kind: scenario.KindGaussMarkov, Rho: 0.998,
			SNRLodB: 14, SNRHidB: 30,
		},
		Decode: scenario.DecodeSpec{MaxSlots: 400},
	})
}

// BenchmarkWarehouseSweepProbe is one capacity-sweep probe evaluation
// at the warehouse workload shape — Poisson arrivals over a
// Gauss–Markov channel with per-tag rho draws, finite dwell, analytic
// re-identification and whole-round decode — scaled down from
// examples/scenarios/warehouse.json so an op fits bench time. The
// streaming paths the warehouse-scale CI job depends on all engage
// here: the arrival schedule resolves through ArrivalStream (never
// materialized into per-tag windows up front), the dynamic lane
// refills from the same iterator, and the latency report aggregates
// completion samples. Besides allocs/op, the bench reports the
// post-GC live-heap delta across the whole run
// (runtime.ReadMemStats): the PR-10 memory model in PERFORMANCE.md
// tracks this number, which must stay flat as the offered count grows
// because the roster streams instead of materializing.
func BenchmarkWarehouseSweepProbe(b *testing.B) {
	spec := scenario.Spec{
		Version: 2, Name: "warehouse-probe", Trials: 2, Seed: 555001,
		Workload: scenario.WorkloadSpec{
			K: 8,
			Arrivals: &scenario.ArrivalSpec{
				Process: scenario.ArrivalPoisson, Rate: 0.35, Count: 120,
				Dwell: 96, RhoLo: 0.99995, RhoHi: 1,
				Reident: scenario.ReidentAnalytic,
			},
		},
		Channel: scenario.ChannelSpec{Kind: scenario.KindGaussMarkov},
		Decode:  scenario.DecodeSpec{MaxSlots: 800, CRC: "crc16"},
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	b.ReportAllocs()
	b.ResetTimer()
	var delivered, offered, wrong int
	for i := 0; i < b.N; i++ {
		s := spec
		s.Seed = spec.Seed + uint64(i)
		out, err := sim.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		delivered = out.Latency.TagsDelivered
		offered = out.Latency.TagsOffered
		wrong = out.Scheme(scenario.SchemeBuzz).WrongPayload
	}
	b.StopTimer()

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	b.ReportMetric(float64(after.HeapAlloc)-float64(before.HeapAlloc), "live-heap-bytes")
	b.ReportMetric(float64(offered), "offered")
	b.ReportMetric(float64(delivered)/float64(offered), "delivered-frac")
	b.ReportMetric(float64(wrong), "wrong-payloads")
}

// BenchmarkWarehouseRosterScaling runs one trial of
// examples/scenarios/warehouse.json per op at 550, 1,100 and 2,200
// arrivals, at the spec's arrival rate and dwell with the slot budget
// scaled with the count, and reports the CPU cost per slot next to the
// mean joined and present tag counts per slot. The present count stays
// near rate × dwell while the joined count grows with the roster, so a
// slot cycle that walks live tags keeps ns/slot flat apart from the
// channel process, which still advances every tag not yet arrived
// (channel.GaussMarkov.ModelAt; profile with -cpuprofile to split it
// out).
func BenchmarkWarehouseRosterScaling(b *testing.B) {
	base, err := scenario.Load("examples/scenarios/warehouse.json")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{550, 1100, 2200} {
		b.Run(fmt.Sprintf("arrivals=%d", n), func(b *testing.B) {
			spec := base
			a := *spec.Workload.Arrivals
			a.Count = n
			spec.Workload.Arrivals = &a
			spec.Decode.MaxSlots = base.Decode.MaxSlots * n / base.Workload.Arrivals.Count
			spec.Trials = 1
			var slots, joined, present int
			for i := 0; i < b.N; i++ {
				spec.Seed = base.Seed + uint64(i)
				out, err := sim.Run(spec, sim.WithTrialDetail())
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				rost, err := spec.WithDefaults().ResolveRoster()
				if err != nil {
					b.Fatal(err)
				}
				l := out.Trials[0].SlotsUsed
				slots += l
				for _, w := range rost.Windows {
					if w.Arrive() > l {
						continue
					}
					joined += l - w.Arrive() + 1
					end := l + 1
					if w.DepartSlot > 0 {
						end = min(end, w.DepartSlot)
					}
					present += max(0, end-w.Arrive())
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(slots), "ns/slot")
			b.ReportMetric(float64(joined)/float64(slots), "joined/slot")
			b.ReportMetric(float64(present)/float64(slots), "present/slot")
		})
	}
}

// --- Ablations ----------------------------------------------------------------------

// BenchmarkAblation_DSparsity sweeps the participation density of the
// rateless code: too sparse wastes slots, too dense breeds constellation
// ambiguity (§6d).
func BenchmarkAblation_DSparsity(b *testing.B) {
	for _, meanColliders := range []float64{2, 4, 5, 7} {
		b.Run(nameF("colliders", meanColliders), func(b *testing.B) {
			src := prng.NewSource(31)
			const k = 12
			var slots int
			var lost int
			for i := 0; i < b.N; i++ {
				setup := src.Fork(uint64(i))
				msgs := make([]bits.Vector, k)
				for j := range msgs {
					msgs[j] = bits.Random(setup, 32)
				}
				ch := channel.NewFromSNRBand(k, 14, 30, setup)
				seeds := make([]uint64, k)
				for j := range seeds {
					seeds[j] = setup.Uint64()
				}
				d := meanColliders / float64(k)
				if d > ratedapt.MaxDensity {
					d = ratedapt.MaxDensity
				}
				res, err := ratedapt.Transfer(ratedapt.Config{
					Seeds: seeds, SessionSalt: setup.Uint64(), CRC: bits.CRC5,
					Density: d, Restarts: 2, MaxSlots: 40 * k,
				}, msgs, ch, setup.Fork(1), setup.Fork(2))
				if err != nil {
					b.Fatal(err)
				}
				slots = res.SlotsUsed
				lost = res.Lost()
			}
			b.ReportMetric(float64(slots), "slots")
			b.ReportMetric(float64(lost), "lost")
		})
	}
}

// BenchmarkAblation_CSSolver times the stage-C sparse solver (dense OMP)
// on a 60×80 binary pattern matrix at K = 8.
func BenchmarkAblation_CSSolver(b *testing.B) {
	src := prng.NewSource(33)
	const rows, cols, k = 60, 80, 8
	a := dsp.NewMat(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if src.Bool() {
				a.Set(r, c, 1)
			}
		}
	}
	truth := dsp.NewVec(cols)
	perm := src.Perm(cols)
	for _, c := range perm[:k] {
		truth[c] = complex(0.5+src.Float64(), src.Float64())
	}
	y := a.MulVecInto(dsp.NewVec(a.Rows), truth)
	for i := range y {
		y[i] += src.ComplexNorm() * complex(0.05, 0)
	}

	b.Run("OMP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cs.OMP(a, y, cs.OMPOptions{MaxSparsity: k + 4, ResidualTol: 0.05, MinCoeffMag: 0.2, DCAtom: true}); err != nil && err != cs.ErrNoConvergence {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_Buckets sweeps the identification parameters a and c
// (paper §5D: a trades decoding complexity against air time; c trades
// bucket count against candidate-set size).
func BenchmarkAblation_Buckets(b *testing.B) {
	for _, cParam := range []int{5, 10, 20} {
		b.Run(nameI("c", cParam), func(b *testing.B) {
			src := prng.NewSource(35)
			const k = 12
			var slots, candidates int
			for i := 0; i < b.N; i++ {
				setup := src.Fork(uint64(i))
				ids := make([]uint64, k)
				for j := range ids {
					ids[j] = setup.Uint64()
				}
				ch := channel.NewFromSNRBand(k, 15, 25, setup)
				res, err := identify.Run(identify.Config{Salt: setup.Uint64(), C: cParam}, ids, ch, setup.Fork(1))
				if err != nil {
					b.Fatal(err)
				}
				slots = res.TotalSlots
				candidates = res.Candidates
			}
			b.ReportMetric(float64(slots), "slots")
			b.ReportMetric(float64(candidates), "candidates")
		})
	}
}

// BenchmarkAblation_KEst sweeps the stage-A slots-per-step parameter
// (paper: s = 4; our default 8 — see identify.Config).
func BenchmarkAblation_KEst(b *testing.B) {
	for _, s := range []int{4, 8, 16} {
		b.Run(nameI("s", s), func(b *testing.B) {
			src := prng.NewSource(37)
			const k = 16
			var estErr float64
			var slots int
			for i := 0; i < b.N; i++ {
				setup := src.Fork(uint64(i))
				ids := make([]uint64, k)
				for j := range ids {
					ids[j] = setup.Uint64()
				}
				ch := channel.NewFromSNRBand(k, 15, 25, setup)
				res, err := identify.Run(identify.Config{Salt: setup.Uint64(), SlotsPerStep: s}, ids, ch, setup.Fork(1))
				if err != nil {
					b.Fatal(err)
				}
				diff := float64(res.KEstimate - k)
				if diff < 0 {
					diff = -diff
				}
				estErr = diff
				slots = res.KEstSlots
			}
			b.ReportMetric(estErr, "abs-K-error")
			b.ReportMetric(float64(slots), "stageA-slots")
		})
	}
}

// BenchmarkAblation_CDMASync isolates the orthogonality-erosion
// mechanism: CDMA with and without sync imperfections.
func BenchmarkAblation_CDMASync(b *testing.B) {
	for _, perfect := range []bool{false, true} {
		name := "realistic"
		if perfect {
			name = "perfect-sync"
		}
		b.Run(name, func(b *testing.B) {
			src := prng.NewSource(39)
			const k = 16
			var lost int
			for i := 0; i < b.N; i++ {
				setup := src.Fork(uint64(i))
				msgs := make([]bits.Vector, k)
				for j := range msgs {
					msgs[j] = bits.Random(setup, 32)
				}
				ch := channel.NewFromSNRBand(k, 14, 30, setup)
				ch.AGCNoiseFraction = 0.002
				res, err := cdma.Run(cdma.Config{CRC: bits.CRC5, SyncPerfect: perfect}, msgs, ch, setup.Fork(1))
				if err != nil {
					b.Fatal(err)
				}
				lost = res.Lost()
			}
			b.ReportMetric(float64(lost), "lost-of-16")
		})
	}
}

// BenchmarkAblation_CRCFreeze compares the paper's acceptance rule (bare
// CRC check, then freeze) against this implementation's gated rule
// (margins + tie detection + confirmation). The bare rule is faster in
// slots but delivers wrong payloads: a 5-bit CRC false-accepts 1 in 32
// garbage frames, and near-zero signed subset sums of taps make some
// wrong frames CRC-consistent (see bp.Session.DecodeSlot's ambiguity
// flags). The gated rule trades a few slots for zero wrong deliveries.
func BenchmarkAblation_CRCFreeze(b *testing.B) {
	for _, gated := range []bool{true, false} {
		name := "bare-crc"
		threshold := -1.0 // disables the margin gates
		if gated {
			name = "gated"
			threshold = 0
		}
		b.Run(name, func(b *testing.B) {
			src := prng.NewSource(43)
			const k = 8
			var slots, wrong, lost int
			for i := 0; i < b.N; i++ {
				setup := src.Fork(uint64(i))
				msgs := make([]bits.Vector, k)
				for j := range msgs {
					msgs[j] = bits.Random(setup, 32)
				}
				ch := channel.NewFromSNRBand(k, 14, 30, setup)
				ch.AGCNoiseFraction = 0.002
				seeds := make([]uint64, k)
				for j := range seeds {
					seeds[j] = setup.Uint64()
				}
				res, err := ratedapt.Transfer(ratedapt.Config{
					Seeds: seeds, SessionSalt: setup.Uint64(), CRC: bits.CRC5,
					Restarts: 2, MaxSlots: 40 * k, MarginThreshold: threshold,
				}, msgs, ch, setup.Fork(1), setup.Fork(2))
				if err != nil {
					b.Fatal(err)
				}
				slots += res.SlotsUsed
				lost += res.Lost()
				for j, p := range res.Payloads(bits.CRC5) {
					if res.Verified[j] && !p.Equal(msgs[j]) {
						wrong++
					}
				}
			}
			n := float64(b.N)
			b.ReportMetric(float64(slots)/n, "slots")
			b.ReportMetric(float64(wrong)/n, "wrong-payloads")
			b.ReportMetric(float64(lost)/n, "lost")
		})
	}
}

// BenchmarkAblation_FSAKnownK quantifies what the K estimate alone buys
// the EPC baseline (§10's 20-40%).
func BenchmarkAblation_FSAKnownK(b *testing.B) {
	for _, known := range []bool{false, true} {
		name := "plain"
		if known {
			name = "known-K"
		}
		b.Run(name, func(b *testing.B) {
			var ms float64
			for i := 0; i < b.N; i++ {
				cfg := fsa.Config{}
				if known {
					cfg = fsa.KnownKConfig(16)
				}
				res, err := fsa.Run(cfg, 16, prng.NewSource(uint64(41+i)))
				if err != nil {
					b.Fatal(err)
				}
				ms = res.Time.Millis()
			}
			b.ReportMetric(ms, "ms")
		})
	}
}

func nameF(prefix string, v float64) string {
	return fmt.Sprintf("%s=%g", prefix, v)
}

func nameI(prefix string, v int) string {
	return fmt.Sprintf("%s=%d", prefix, v)
}

// BenchmarkExtension_SilenceACK measures the design alternative §8.2
// weighs and rejects: ACKing each decoded tag so it stops colliding.
// The paper's back-of-the-envelope estimate is a ~75% overhead on top of
// the uplink transfer time for 14 tags; the metric here is total air
// time (uplink slots + downlink ACKs) relative to Buzz's single-stop
// design.
func BenchmarkExtension_SilenceACK(b *testing.B) {
	for _, silence := range []bool{false, true} {
		name := "single-stop"
		if silence {
			name = "ack-silencing"
		}
		b.Run(name, func(b *testing.B) {
			src := prng.NewSource(45)
			const k = 14
			frameLen := 32 + bits.CRC5.Width()
			var totalMs float64
			for i := 0; i < b.N; i++ {
				setup := src.Fork(uint64(i))
				msgs := make([]bits.Vector, k)
				for j := range msgs {
					msgs[j] = bits.Random(setup, 32)
				}
				ch := channel.NewFromSNRBand(k, 14, 30, setup)
				ch.AGCNoiseFraction = 0.002
				seeds := make([]uint64, k)
				for j := range seeds {
					seeds[j] = setup.Uint64()
				}
				res, err := ratedapt.Transfer(ratedapt.Config{
					Seeds: seeds, SessionSalt: setup.Uint64(), CRC: bits.CRC5,
					Restarts: 2, MaxSlots: 40 * k, SilenceDecoded: silence,
				}, msgs, ch, setup.Fork(1), setup.Fork(2))
				if err != nil {
					b.Fatal(err)
				}
				var acct epc.TimeAccount
				acct.AddUplink(float64(res.SlotsUsed * frameLen))
				acct.AddDownlink(float64(res.AckDownlinkBits))
				acct.AddTurnaround(res.AckTurnarounds)
				totalMs += acct.Millis()
			}
			b.ReportMetric(totalMs/float64(b.N), "total-ms")
		})
	}
}

// BenchmarkExtension_SampledAir compares the idealized symbol-level air
// against full waveform synthesis with the §8.1 timing imperfections —
// the quantitative form of the paper's "negligible impact" claim.
func BenchmarkExtension_SampledAir(b *testing.B) {
	for _, sampled := range []bool{false, true} {
		name := "symbol-level"
		if sampled {
			name = "sampled+timing"
		}
		b.Run(name, func(b *testing.B) {
			src := prng.NewSource(47)
			const k = 8
			var slots, lost int
			for i := 0; i < b.N; i++ {
				setup := src.Fork(uint64(i))
				msgs := make([]bits.Vector, k)
				for j := range msgs {
					msgs[j] = bits.Random(setup, 32)
				}
				ch := channel.NewFromSNRBand(k, 15, 25, setup)
				seeds := make([]uint64, k)
				for j := range seeds {
					seeds[j] = setup.Uint64()
				}
				base := ratedapt.Config{
					Seeds: seeds, SessionSalt: setup.Uint64(), CRC: bits.CRC5,
					Restarts: 2, MaxSlots: 40 * k,
				}
				var res *ratedapt.Result
				var err error
				if sampled {
					res, err = ratedapt.TransferSampled(ratedapt.SampledConfig{Config: base}, msgs, ch, setup.Fork(1), setup.Fork(2))
				} else {
					res, err = ratedapt.Transfer(base, msgs, ch, setup.Fork(1), setup.Fork(2))
				}
				if err != nil {
					b.Fatal(err)
				}
				slots += res.SlotsUsed
				lost += res.Lost()
			}
			b.ReportMetric(float64(slots)/float64(b.N), "slots")
			b.ReportMetric(float64(lost)/float64(b.N), "lost")
		})
	}
}
