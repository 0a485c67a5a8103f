package main

import (
	"sort"
	"time"
)

// The host probe. On a shared VM the speed of the host swings by up to
// 2x for seconds to minutes at a time, as other tenants load the physical
// core: a fixed op measured a minute apart took 150 ms and 300 ms. Code
// that keeps the core's execution units busy — the decoder, and the probe
// kernels below — slows by about the same factor, while a single
// dependent chain of operations barely moves. So the benchmark runs the
// probe between samples and scales each timed sample by
// probeNominalMs / (the probe time around it): the result is the time the
// sample would have taken with the host at its reference speed. On the
// reference machine, over 12-second windows of a noisy seven minutes,
// this cut the spread (interquartile range over median) of mean op time
// from 16% to under 3% for both mobility and headline ops. The probe is
// the benchmark's own code, so a change to the program moves the scaled
// times exactly as it moves the raw ones.

// probeNominalMs is the probe's time on the reference machine (2 shared
// vCPUs) when no other tenant loads it; it only sets the scale of the
// host-normalized times.
const probeNominalMs = 0.55

// probeEvery is the least time between two probes of a run (the first and
// last are always taken), so probing costs about 2% of the run.
const probeEvery = 25 * time.Millisecond

// probeSpan is how many probes on each side of a sample its scale
// averages: a single probe is noisy, while the host's speed holds for
// seconds.
const probeSpan = 4

var (
	probeCplx  [256]complex128 // 4 KiB each: the kernels stay in L1
	probeAcc   [256]complex128
	probeTable [1024]uint32
	probeSink  uint64
)

// probeOnce runs the two probe kernels and returns their time in ms. Both
// are throughput-bound, with no long dependency chain: complex
// multiply-adds over an array, like the decoder's inner loops, and four
// independent integer hash streams with table lookups, like its
// bookkeeping and the kernel's socket path.
func probeOnce() float64 {
	t0 := time.Now()
	for i := range probeCplx {
		probeCplx[i] = complex(float64(i)*1e-3, 1e-3)
	}
	w := complex(0.999, 0.001)
	for r := 0; r < 500; r++ {
		for i := range probeCplx {
			probeAcc[i] = probeCplx[i]*w + probeAcc[i]*0.5
		}
	}
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	var acc uint32
	for r := 0; r < 80_000; r++ {
		a = xorshift(a)
		b = xorshift(b)
		c = xorshift(c)
		d = xorshift(d)
		acc += probeTable[a&1023] + probeTable[b&1023] + probeTable[c&1023] + probeTable[d&1023]
		probeTable[(a^d)&1023]++
	}
	probeSink += uint64(acc) + uint64(real(probeAcc[7]))
	return float64(time.Since(t0)) / 1e6
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// probeLog records the probes taken between a run's samples: at[k] is how
// many samples were taken before probe k, which took ms[k].
type probeLog struct {
	at   []int
	ms   []float64
	last time.Time
}

// take probes the host after n samples if probeEvery has passed since the
// last probe, or if force is set.
func (p *probeLog) take(n int, force bool) {
	if !force && time.Since(p.last) < probeEvery {
		return
	}
	p.ms = append(p.ms, probeOnce())
	p.at = append(p.at, n)
	p.last = time.Now()
}

// scale returns the factor that brings sample i to the reference host
// speed, from the mean of the probeSpan probes before it and the
// probeSpan after it. The run must have probed before its first sample
// and after its last.
func (p *probeLog) scale(i int) float64 {
	k := sort.Search(len(p.at), func(k int) bool { return p.at[k] > i }) // first probe after sample i
	lo, hi := max(k-probeSpan, 0), min(k+probeSpan, len(p.ms))
	return probeNominalMs * float64(hi-lo) / sum(p.ms[lo:hi])
}

// normalize returns the samples scaled to the reference host speed.
func (p *probeLog) normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * p.scale(i)
	}
	return out
}

// meanScale is the factor that brings the samples' total to the
// reference host speed. A traced pass scales its layers' self times by it,
// so they add up to its normalized op times.
func (p *probeLog) meanScale(xs []float64) float64 {
	return sum(p.normalize(xs)) / sum(xs)
}

// slowdown is the run's median probe time over the nominal one: 1 on a
// quiet reference machine, 2 when the host ran the probe at half speed.
func (p *probeLog) slowdown() float64 {
	return median(p.ms) / probeNominalMs
}
