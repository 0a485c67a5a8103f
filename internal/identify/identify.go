// Package identify implements Buzz's node-identification protocol (§5):
// a three-stage customized compressive-sensing scheme that finds the K
// tags with data (out of a node population of any size N), assigns them
// distinguishable temporary ids, and estimates their channel taps — all
// in O(s·log K + cK + K·log a) bit slots, independent of N.
//
// Stage A (K estimation): a streaming sweep of geometrically decreasing
// transmission probabilities p_j = 2^-j; the reader watches the fraction
// of empty slots per step and inverts E_j = (1−p_j)^K once the slots are
// mostly empty (Eq. 4, Lemma 5.1).
//
// Stage B (scale reduction): each active tag picks a random temporary id
// in a space of a·c·K̂ ids; the space is partitioned into c·K̂ buckets of
// a ids each, one bit slot per bucket. Ids in buckets where the reader
// detects no power are eliminated, leaving at most a·K̂ candidates.
//
// Stage C (compressive sensing): the surviving candidates define the
// columns of a small binary pattern matrix A′ that the reader regenerates
// from the candidate ids; active tags transmit their pattern over
// M ≈ K̂·log a slots, and a sparse solver recovers z′ = H′x′ — which tags
// are present and their complex channels in one shot.
package identify

import (
	"fmt"
	"math"

	"repro/internal/channel"
	"repro/internal/cs"
	"repro/internal/dsp"
	"repro/internal/prng"
	"repro/internal/scratch"
)

// Config parameterizes an identification session. The zero value gives
// the paper's termination threshold 0.75 and c = 10, with s = 8 slots
// per step and a bucket size of a = 4·K̂ (see SlotsPerStep and
// bucketSize).
type Config struct {
	// SlotsPerStep is s, the number of slots per stage-A step. The
	// paper's implementation uses 4; the default here is 8, because at
	// s = 4 a single lucky step (3 of 4 slots empty early) produces a
	// severalfold underestimate of K that starves stage C of
	// measurements. Lemma 5.1 scales s with the desired accuracy; 8 is
	// still a negligible slot cost. The ablation bench sweeps this.
	SlotsPerStep int
	// EmptyThreshold is the stage-A termination threshold on the
	// fraction of empty slots. Zero means the paper's 0.75.
	EmptyThreshold float64
	// MaxSteps bounds stage A (safety against a silent network). Zero
	// means 48.
	MaxSteps int
	// C is the bucket multiplier: stage B uses C·K̂ buckets. Zero means
	// the paper's 10. The ablation bench sweeps this.
	C int
	// Salt decorrelates sessions (fresh randomness per reader query).
	Salt uint64
	// DetectFactor scales the power-detection threshold relative to the
	// noise floor: a slot is "occupied" when its power exceeds
	// DetectFactor·N₀. Zero means 5.
	DetectFactor float64
	// Scratch, when non-nil, supplies the session's working buffers —
	// per-slot activity vectors, the stage-C measurement matrix, and the
	// sparse solver's workspace — from a per-worker arena instead of the
	// heap. Released before Run returns; results are identical either
	// way.
	Scratch *scratch.Scratch
}

func (c *Config) slotsPerStep() int {
	if c.SlotsPerStep > 0 {
		return c.SlotsPerStep
	}
	return 8
}

func (c *Config) emptyThreshold() float64 {
	if c.EmptyThreshold > 0 {
		return c.EmptyThreshold
	}
	return 0.75
}

func (c *Config) maxSteps() int {
	if c.MaxSteps > 0 {
		return c.MaxSteps
	}
	return 48
}

func (c *Config) cParam() int {
	if c.C > 0 {
		return c.C
	}
	return 10
}

// bucketSize is a, the number of ids per stage-B bucket: 4·K̂. The
// paper's experiments use a = K̂; four times that costs no extra air
// time in stages A or B (only log(a) more stage-C slots) while
// quartering the probability that two tags draw the same temporary id
// and become indistinguishable.
func bucketSize(kHat int) int {
	return 4 * max(kHat, 2)
}

func (c *Config) detectFactor() float64 {
	if c.DetectFactor > 0 {
		return c.DetectFactor
	}
	return 5
}

// mSlack is the number of stage-C slots beyond the K̂·log₂(a)
// baseline: greedy recovery under noise wants a little more than the
// L1 information bound.
func mSlack(kHat int) int {
	return 2*kHat + 8
}

// sparsitySlack extends the CS solver's support budget beyond K̂.
func sparsitySlack(kHat int) int {
	return kHat/2 + 4
}

// Identified is one recovered tag: its temporary id and estimated
// channel tap.
type Identified struct {
	// TempID is the temporary id the tag drew for this session; it
	// becomes the tag's seed in the data phase.
	TempID uint64
	// Tap is the channel coefficient estimated by the sparse solver —
	// the H entry the data-phase decoder will use.
	Tap complex128
}

// Result reports an identification session.
type Result struct {
	// KEstimate is K̂ from stage A.
	KEstimate int
	// Steps is j*, the number of stage-A steps consumed.
	Steps int
	// KEstSlots, BucketSlots and CSSlots break the slot budget down by
	// stage; TotalSlots is their sum (the Fig. 14 y-axis, in slots).
	KEstSlots, BucketSlots, CSSlots, TotalSlots int
	// IDSpace is the size a·c·K̂ of the temporary id space used.
	IDSpace uint64
	// Candidates is the number of ids surviving stage B.
	Candidates int
	// Identified lists the recovered tags.
	Identified []Identified
	// CSIterations is the number of stage-C pursuit iterations
	// (cs.Result.Iterations): a machine-independent measure of the
	// solver's work.
	CSIterations int

	// salt records the session salt Run was configured with, so Match
	// can re-derive the tags' temporary ids.
	salt uint64
}

// TempIDFor returns the temporary id the tag with the given global id
// draws in the session with the given salt and id-space size. Tag and
// reader share this derivation (the tag computes it; the reader never
// needs it, but tests and the simulator do).
func TempIDFor(globalID, salt, idSpace uint64) uint64 {
	if idSpace == 0 {
		return 0
	}
	return uint64(prng.UintN(prng.Mix2(globalID, salt), int(idSpace)))
}

// PatternSeed is the per-session pattern key of a temporary id — the
// hoisted common factor of every PatternWord evaluation for
// that id.
func PatternSeed(tempID, salt uint64) uint64 {
	return prng.Mix3(tempID, salt, 0xC5)
}

// PatternWord returns 64 consecutive stage-C pattern bits — rows
// 64·w … 64·w+63 — for the pattern seed, bit b of the word being row
// 64·w+b. One hash yields 64 rows, which is how the reader regenerates
// whole A′ columns; a tag shifts the same word out bit by bit.
func PatternWord(seed uint64, w int) uint64 {
	return prng.Mix2(seed, uint64(w))
}

// Run executes a full identification session. activeIDs are the global
// ids of the K tags that have data; ch supplies their channel taps
// (index-aligned with activeIDs) and the noise floor. noiseSrc drives
// channel noise.
//
// The reader side of this function only uses information a real reader
// has: received symbols, the session salt, and the shared pseudorandom
// functions. activeIDs and ch drive the tag/air side of the simulation.
func Run(cfg Config, activeIDs []uint64, ch *channel.Model, noiseSrc *prng.Source) (*Result, error) {
	k := len(activeIDs)
	if ch.K() != k {
		return nil, fmt.Errorf("identify: %d taps for %d active tags", ch.K(), k)
	}
	res := &Result{salt: cfg.Salt}
	detect := cfg.detectFactor() * ch.NoisePower
	sc := cfg.Scratch
	mark := sc.Mark()
	defer sc.Release(mark)
	// One activity vector serves every slot of all three stages: each
	// slot assigns all k entries before use.
	active := sc.Bool(k)

	// ---- Stage A: estimate K. ----
	// The paper reads K̂ off a single step via Eq. 4. At small s that
	// estimator is severalfold noisy (one lucky step mis-sizes the id
	// space for everything downstream), so we keep the paper's
	// geometric probability schedule and stopping rule but combine the
	// empty-slot counts of *all* steps by maximum likelihood: the empty
	// count of step j is Binomial(s, (1−p_j)^K), so
	//
	//	log L(K) = Σ_j [ e_j·K·ln(1−p_j) + (s−e_j)·ln(1−(1−p_j)^K) ]
	//
	// maximized by a scan over a grid of about 550 K values. Each step
	// adds its row of per-candidate terms, computed once per process,
	// into the likelihoods as it completes: two multiply-adds per
	// candidate and step, no logarithm (see kestimate.go). Two extra
	// steps past the threshold crossing sharpen the likelihood at no
	// meaningful cost.
	s := cfg.slotsPerStep()
	threshold := cfg.emptyThreshold()
	ll := sc.Float(len(kCandidates))
	stepSeeds := sc.Uint64(k)
	extra := 0
	for step := 1; step <= cfg.maxSteps(); step++ {
		p := math.Pow(2, -float64(step))
		// Stage-A participation: tag side and reader side both draw
		// BiasedBitAt(Mix3(id, salt, step), slot, p). The per-(id,
		// step) seed is the hot inner loop's only hash; hoist it
		// across the step's slots.
		for i, id := range activeIDs {
			stepSeeds[i] = prng.Mix3(id, cfg.Salt, uint64(step))
		}
		empty := 0
		for slot := 0; slot < s; slot++ {
			for i := range activeIDs {
				active[i] = prng.BiasedBitAt(stepSeeds[i], uint64(slot), p)
			}
			y := ch.Symbol(active, noiseSrc)
			if real(y)*real(y)+imag(y)*imag(y) <= detect {
				empty++
			}
		}
		res.KEstSlots += s
		res.Steps = step
		addStep(ll, step, s, empty)
		if float64(empty)/float64(s) >= threshold {
			extra++
		}
		if extra >= 3 {
			break
		}
	}
	kHat, _ := kEstimate(ll)
	if kHat == kCandidates[len(kCandidates)-1] {
		// The likelihood still rises at the grid's top: no step saw
		// enough empty slots to bound K (every slot busy — interference,
		// or a detection threshold under the noise floor). Stages B and C
		// sized from this K̂ would list ~10⁷ buckets and ~10¹³ candidates.
		return nil, fmt.Errorf("identify: stage A found no upper bound on K in %d steps (K̂ saturated at %d)", res.Steps, kHat)
	}
	res.KEstimate = kHat

	// ---- Stage B: bucket elimination. ----
	a := bucketSize(kHat)
	c := cfg.cParam()
	nBuckets := c * kHat
	idSpace := uint64(a) * uint64(nBuckets)
	res.IDSpace = idSpace
	res.BucketSlots = nBuckets

	tempIDs := sc.Uint64(k)
	tagBucket := sc.Int(k)
	for i, id := range activeIDs {
		tempIDs[i] = TempIDFor(id, cfg.Salt, idSpace)
		tagBucket[i] = int(tempIDs[i]) / a
	}
	occupied := sc.Bool(nBuckets)
	nOccupied := 0
	for b := 0; b < nBuckets; b++ {
		for i := range tempIDs {
			active[i] = tagBucket[i] == b
		}
		y := ch.Symbol(active, noiseSrc)
		if real(y)*real(y)+imag(y)*imag(y) > detect {
			occupied[b] = true
			nOccupied++
		}
	}
	candidates := sc.Uint64(nOccupied * a)[:0]
	for b, occ := range occupied {
		if !occ {
			continue
		}
		for j := 0; j < a; j++ {
			candidates = append(candidates, uint64(b*a+j))
		}
	}
	res.Candidates = len(candidates)
	if len(candidates) == 0 {
		res.TotalSlots = res.KEstSlots + res.BucketSlots
		return res, nil
	}

	// Refine the K estimate from bucket occupancy — information stage B
	// already produced. With K tags thrown into nBuckets buckets, the
	// occupancy-corrected MLE is K ≈ ln(1 − B/n)/ln(1 − 1/n); it guards
	// stage C's measurement budget against a noisy stage-A estimate.
	kForC := kHat
	if nOccupied < nBuckets {
		mle := math.Log(1-float64(nOccupied)/float64(nBuckets)) /
			math.Log(1-1/float64(nBuckets))
		if r := int(math.Round(mle)); r > kForC {
			kForC = r
		}
	} else {
		kForC = nBuckets // saturated: every bucket hit, assume at least one each
	}

	// ---- Stage C: compressive sensing over the survivors. ----
	logA := math.Log2(float64(a))
	if logA < 1 {
		logA = 1
	}
	m := int(math.Ceil(float64(kForC)*logA)) + mSlack(kForC)
	// A few rows beyond the candidate count still improve conditioning
	// under noise; far beyond it they only burn slots.
	if cap := len(candidates) + 2*kForC + 16; m > cap {
		m = cap
	}
	res.CSSlots = m

	// Air: tags transmit their pattern bits; reader records symbols.
	// Each tag's 64-row pattern words are staged once per word index
	// rather than re-hashed per row.
	y := dsp.Vec(sc.Complex(m))
	tagSeeds := sc.Uint64(k)
	tagWords := sc.Uint64(k)
	for i, tid := range tempIDs {
		tagSeeds[i] = PatternSeed(tid, cfg.Salt)
	}
	for row := 0; row < m; row++ {
		if row%64 == 0 {
			for i := range tagWords {
				tagWords[i] = PatternWord(tagSeeds[i], row/64)
			}
		}
		bit := uint(row % 64)
		for i := range tempIDs {
			active[i] = tagWords[i]>>bit&1 == 1
		}
		y[row] = ch.Symbol(active, noiseSrc)
	}

	// Reader: regenerate A′ columns for the candidates only (never for
	// the whole population — the point of stages A and B), directly as
	// column bitsets: 64 rows per hash, no dense matrix.
	aPrime := cs.NewBinaryMatScratch(m, len(candidates), sc)
	lastMask := ^uint64(0)
	if m%64 != 0 {
		lastMask = 1<<uint(m%64) - 1
	}
	for col, id := range candidates {
		seed := PatternSeed(id, cfg.Salt)
		words := aPrime.Col(col)
		for w := range words {
			words[w] = PatternWord(seed, w)
		}
		words[len(words)-1] &= lastMask
	}

	noiseFloor := math.Sqrt(ch.NoisePower)
	relTol := 0.0
	if yn := y.Norm(); yn > 0 {
		relTol = 1.5 * noiseFloor * math.Sqrt(float64(m)) / yn
	}
	sol, err := cs.OMPBits(aPrime, y, cs.OMPOptions{
		MaxSparsity: kForC + sparsitySlack(kForC),
		ResidualTol: relTol,
		MinCoeffMag: 2 * noiseFloor,
		DCAtom:      true,
		Scratch:     sc,
	})
	if err != nil && err != cs.ErrNoConvergence {
		return nil, fmt.Errorf("identify: stage C solve: %w", err)
	}
	res.CSIterations = sol.Iterations
	for i, col := range sol.Support {
		res.Identified = append(res.Identified, Identified{
			TempID: candidates[col],
			Tap:    sol.Coeffs[i],
		})
	}
	res.TotalSlots = res.KEstSlots + res.BucketSlots + res.CSSlots
	return res, nil
}

// Match compares an identification result against ground truth and
// reports, for each active tag, whether it was correctly identified
// (its temporary id appears in the result, uniquely drawn). Tags that
// drew duplicate temporary ids are unidentifiable by construction — the
// rare failure the paper handles by restarting the session.
func Match(res *Result, activeIDs []uint64) (identified []bool, duplicates int) {
	tempIDs := make([]uint64, len(activeIDs))
	counts := map[uint64]int{}
	for i, id := range activeIDs {
		tempIDs[i] = TempIDFor(id, res.SessionSalt(), res.IDSpace)
		counts[tempIDs[i]]++
	}
	found := map[uint64]bool{}
	for _, ident := range res.Identified {
		found[ident.TempID] = true
	}
	identified = make([]bool, len(activeIDs))
	for i, tid := range tempIDs {
		if counts[tid] > 1 {
			duplicates++
			continue
		}
		identified[i] = found[tid]
	}
	return identified, duplicates
}

// SessionSalt is recorded implicitly via the config; Result carries it
// through for Match. (Set by Run.)
func (r *Result) SessionSalt() uint64 { return r.salt }
