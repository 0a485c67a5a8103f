package identify

import "math"

// ExpectedSlots returns the closed-form expected slot budget of a full
// identification session over k present tags, under the default Config
// and an accurate stage-A estimate (K̂ = k). It mirrors Run's budget
// arithmetic stage by stage without touching a channel or a PRNG:
//
//   - Stage A runs until the expected empty-slot fraction
//     (1−2^−j)^k crosses the termination threshold, plus the two
//     extra likelihood-sharpening steps, capped at MaxSteps; each step
//     costs SlotsPerStep slots.
//   - Stage B costs one slot per bucket: c·k.
//   - Stage C charges ⌈k·log₂ a⌉ + 2k + 8 measurement rows, capped
//     at candidates + 2k + 16 with the candidate count taken at its
//     expectation a·E[occupied buckets].
//
// The result is deterministic and monotone in k — the scenario
// engine's "analytic" re-identification mode charges it per arrival
// burst so warehouse-scale workloads pay the paper's O(s·log K + cK +
// K·log a) slot cost without simulating every burst's air. The
// simulate/analytic budget-agreement test pins it against Run.
func ExpectedSlots(k int) int {
	if k <= 0 {
		return 0
	}
	var cfg Config
	s := cfg.slotsPerStep()
	threshold := cfg.emptyThreshold()
	steps := cfg.maxSteps()
	for j := 1; j <= cfg.maxSteps(); j++ {
		p := math.Pow(2, -float64(j))
		if math.Pow(1-p, float64(k)) >= threshold {
			// First expected threshold crossing; Run stops after the
			// third consecutive crossing (two extra steps).
			steps = min(j+2, cfg.maxSteps())
			break
		}
	}
	kEstSlots := steps * s

	a := bucketSize(k)
	nBuckets := cfg.cParam() * k
	bucketSlots := nBuckets

	// E[occupied] = n·(1 − (1−1/n)^k) buckets survive stage B, each
	// contributing its full a ids to the stage-C candidate set.
	occupied := float64(nBuckets) * (1 - math.Pow(1-1/float64(nBuckets), float64(k)))
	candidates := int(math.Round(occupied)) * a

	logA := math.Log2(float64(a))
	if logA < 1 {
		logA = 1
	}
	m := int(math.Ceil(float64(k)*logA)) + mSlack(k)
	if lim := candidates + 2*k + 16; m > lim {
		m = lim
	}
	return kEstSlots + bucketSlots + m
}
