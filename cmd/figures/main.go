// Command figures regenerates every table and figure of the paper's
// evaluation as aligned text tables. Each figure has a subcommand; with
// -fig all (the default) the whole evaluation is reproduced in order.
//
// Usage:
//
//	figures [-fig all|table12|2|3|7|8|9|10|11|12|13|14|headline] [-trials N] [-seed S]
//
// Absolute numbers depend on the simulated substrate; the shapes — who
// wins, by what factor, where crossovers fall — are the reproduction
// targets (README, "Benchmarks as the reproduction harness").
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/identify"
	"repro/internal/phy"
	"repro/internal/prng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate (all, table12, 2, 3, 7, 8, 9, 10, 11, 12, 13, 14, headline)")
	trials := flag.Int("trials", 10, "trials per data point (the paper uses 10 locations x 5 traces)")
	seed := flag.Uint64("seed", 2012, "base seed for reproducibility")
	flag.Parse()

	runners := map[string]func(int, uint64) error{
		"table12":  figTable12,
		"2":        fig2,
		"3":        fig3,
		"7":        fig7,
		"8":        fig8,
		"9":        fig9,
		"10":       fig10and11,
		"11":       fig10and11,
		"12":       fig12,
		"13":       fig13,
		"14":       fig14,
		"headline": figHeadline,
	}
	order := []string{"table12", "2", "3", "7", "8", "9", "10", "12", "13", "14", "headline"}

	if *fig == "all" {
		for _, name := range order {
			if err := runners[name](*trials, *seed); err != nil {
				fmt.Fprintf(os.Stderr, "figures: %s: %v\n", name, err)
				os.Exit(1)
			}
		}
		return
	}
	run, ok := runners[*fig]
	if !ok {
		fmt.Fprintf(os.Stderr, "figures: unknown figure %q\n", *fig)
		os.Exit(2)
	}
	if err := run(*trials, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func figTable12(_ int, _ uint64) error {
	header("Tables 1 & 2 (§3.2 toy example): collisions improve id distinguishability")
	fmt.Println("Transmit patterns (Table 1):")
	for i, p := range identify.ToyPatterns {
		fmt.Printf("  pattern %d: %d%d%d\n", i+1, p[0], p[1], p[2])
	}
	fmt.Println("Collision patterns (Table 2):")
	table := identify.ToyCollisionTable()
	fmt.Print("        ")
	for i := range identify.ToyPatterns {
		fmt.Printf("  %d%d%d", identify.ToyPatterns[i][0], identify.ToyPatterns[i][1], identify.ToyPatterns[i][2])
	}
	fmt.Println()
	for a := range table {
		fmt.Printf("  %d%d%d  ", identify.ToyPatterns[a][0], identify.ToyPatterns[a][1], identify.ToyPatterns[a][2])
		for b := range table[a] {
			fmt.Printf("  %s", table[a][b])
		}
		fmt.Println()
	}
	fmt.Printf("P(indistinguishable) option 1 (slot picking):    %.4f (paper: 1/3)\n", identify.ToyOption1FailureProbability())
	fmt.Printf("P(indistinguishable) option 2 (pattern picking): %.4f (paper: 1/4)\n", identify.ToyOption2FailureProbability())
	return nil
}

func fig2(_ int, seed uint64) error {
	header("Fig. 2: received signal levels — single tag vs two-tag collision")
	single, double := trace.CollisionLevels(seed)
	fmt.Printf("single tag:        %d distinct magnitude levels (paper: 2)\n", single)
	fmt.Printf("two-tag collision: %d distinct magnitude levels (paper: 4 — '00','01','10','11')\n", double)
	return nil
}

func fig3(_ int, seed uint64) error {
	header("Fig. 3: constellations — 1 tag = 2 points, 2 tags = 4 points")
	for k := 1; k <= 3; k++ {
		pts, minDist := trace.Constellation(k, seed)
		fmt.Printf("k=%d: %d constellation points, min pairwise distance %.3f\n", k, len(pts), minDist)
	}
	return nil
}

func fig7(_ int, seed uint64) error {
	header("Fig. 7: CDF of initial synchronization offset (µs)")
	const n = 2000
	src := prng.NewSource(seed)
	fmt.Printf("%-12s %-10s %-10s %-10s %-10s\n", "tag type", "p50", "p90", "p99", "max")
	for _, m := range []struct {
		name  string
		model phy.SyncOffsetModel
	}{
		{"Moo", phy.MooOffsets},
		{"commercial", phy.CommercialOffsets},
	} {
		draws := make([]float64, n)
		for i := range draws {
			draws[i] = m.model.Draw(src)
		}
		fmt.Printf("%-12s %-10.3f %-10.3f %-10.3f %-10.3f\n", m.name,
			stats.Percentile(draws, 50), stats.Percentile(draws, 90),
			stats.Percentile(draws, 99), stats.Percentile(draws, 100))
	}
	fmt.Println("(paper: p90 = 0.5 µs Moo, 0.3 µs commercial; max < 1 µs)")
	return nil
}

func fig8(_ int, seed uint64) error {
	header("Fig. 8: clock-drift misalignment over a 160-bit trace")
	uncorr, corr := trace.DriftAlignment(seed)
	fmt.Printf("without correction: %.0f%% of late-trace chips smeared (paper: ~50%% symbol misalignment)\n", uncorr*100)
	fmt.Printf("with correction:    %.0f%% of late-trace chips smeared (paper: aligned)\n", corr*100)
	return nil
}

func fig9(_ int, seed uint64) error {
	header("Fig. 9: decode progress — 14 tags, 96-bit messages")
	prog, err := sim.DecodeProgress(14, seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %-10s %-8s %-8s %-14s\n", "slot", "colliders", "new", "total", "bits/symbol")
	for _, p := range prog {
		fmt.Printf("%-6d %-10d %-8d %-8d %-14.2f\n", p.Slot, p.Colliders, p.NewlyDecoded, p.TotalDecoded, p.BitsPerSymbol)
	}
	fmt.Println("(paper: 11 of 14 in the first 4 slots, peak 2.75 b/s, final 1.4 b/s over 10 slots)")
	return nil
}

func fig10and11(trials int, seed uint64) error {
	header("Fig. 10 & 11: data-transfer time and message errors vs number of tags")
	fmt.Printf("%-4s | %-22s | %-22s | %-22s\n", "K", "BUZZ ms (lost) [b/s]", "TDMA ms (lost)", "CDMA ms (lost)")
	for _, k := range []int{4, 8, 12, 16} {
		out, err := sim.CompareDataPhase(sim.DataPhaseConfig{K: k, Trials: trials, Seed: seed + uint64(k), Profile: sim.DefaultProfile()})
		if err != nil {
			return err
		}
		b, t, c := out[0], out[1], out[2]
		fmt.Printf("%-4d | %6.2f (%4.2f) [%4.2f]   | %6.2f (%4.2f)         | %6.2f (%4.2f)\n",
			k,
			b.TransferMillis.Mean, b.Undecoded.Mean, b.BitsPerSymbol.Mean,
			t.TransferMillis.Mean, t.Undecoded.Mean,
			c.TransferMillis.Mean, c.Undecoded.Mean)
	}
	fmt.Println("(paper Fig. 10: Buzz ≈ half of TDMA/CDMA time; Fig. 11: Buzz 0 errors, CDMA worst and growing with K)")
	return nil
}

func fig12(trials int, seed uint64) error {
	header("Fig. 12: challenging channels — decoded tags and aggregate rate (K = 4)")
	out, err := sim.RunChallenging(trials, seed, sim.PaperBands)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s | %-14s %-12s | %-14s %-10s\n", "SNR band dB", "BUZZ decoded", "BUZZ b/s", "TDMA decoded", "TDMA b/s")
	for _, o := range out {
		fmt.Printf("(%2.0f-%2.0f)      | %-14.2f %-12.2f | %-14.2f %-10.2f\n",
			o.Band.LodB, o.Band.HidB, o.BuzzDecoded, o.BuzzRate, o.TDMADecoded, o.TDMARate)
	}
	fmt.Println("(paper: Buzz decodes all 4 in every band, sliding to 0.57 b/s; TDMA falls to 50% loss)")
	return nil
}

func fig13(trials int, seed uint64) error {
	header("Fig. 13: per-query energy (µJ) vs starting voltage (K = 8)")
	out, err := sim.RunEnergy(trials, seed, []float64{3, 4, 5})
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-10s %-10s %-10s\n", "V0", "BUZZ", "TDMA", "CDMA")
	for _, o := range out {
		fmt.Printf("%-8.0f %-10.2f %-10.2f %-10.2f\n", o.StartingVolts, o.BuzzMicroJ, o.TDMAMicroJ, o.CDMAMicroJ)
	}
	fmt.Println("(paper: Buzz ≈ TDMA, CDMA far above; all grow with V0)")
	return nil
}

func fig14(trials int, seed uint64) error {
	header("Fig. 14: identification time (ms) vs number of tags")
	out, err := sim.RunIdentification(trials, seed, []int{4, 8, 12, 16})
	if err != nil {
		return err
	}
	fmt.Printf("%-4s %-10s %-10s %-12s %-10s %-14s\n", "K", "BUZZ", "FSA", "FSA+known K", "BTree", "BUZZ identified")
	for _, o := range out {
		fmt.Printf("%-4d %-10.2f %-10.2f %-12.2f %-10.2f %-14.2f\n",
			o.K, o.BuzzMillis, o.FSAMillis, o.FSAKnownKMillis, o.BTreeMillis, o.BuzzIdentified)
	}
	last := out[len(out)-1]
	fmt.Printf("K=16 speedups: %.1fx over FSA, %.1fx over FSA+known K (paper: 5.5x, 4.5x)\n",
		last.FSAMillis/last.BuzzMillis, last.FSAKnownKMillis/last.BuzzMillis)
	return nil
}

func figHeadline(trials int, seed uint64) error {
	header("Headline (§1, §10): overall communication-efficiency gain")
	res, err := sim.RunHeadline(trials, seed)
	if err != nil {
		return err
	}
	fmt.Printf("identification speedup: %.1fx (paper: 5.5x)\n", res.IdentSpeedup)
	fmt.Printf("data-phase gain:        %.1fx (paper: 2x)\n", res.DataRateGain)
	fmt.Printf("overall improvement:    %.1fx (paper: 3.5x)\n", res.OverallSpeedup)
	return nil
}
