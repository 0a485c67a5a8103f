package identify

import (
	"math"
	"sync/atomic"
)

// Stage A's K estimate is a maximum-likelihood scan over a fixed grid of
// K candidates. Each step's empty count is Binomial(s, (1−p)^K) with
// p = 2^−step, so a candidate's log-likelihood is a sum over the
// observed steps of
//
//	e·ln pEmpty + (s−e)·ln(1−pEmpty),   pEmpty = (1−p)^K,
//
// with pEmpty clamped to [pFloor, pCeil]. The two logarithms depend on
// the step and the candidate alone, never on the session, so each step's
// row of them is computed once per process (stageARowFor) and a session
// adds its steps' rows into one likelihood per candidate with
// multiply-adds (addStep), in step order, before taking the first strict
// maximum (kEstimate).

// pFloor and pCeil clamp pEmpty (the log guards of the direct form).
const pFloor, pCeil = 1e-300, 1 - 1e-12

// kCandidates is the K grid the likelihood scan evaluates, in scan
// order: every integer up to 64, then 2% multiplicative steps up to
// 2²⁰ — K only needs to be right to within a few percent for the
// id-space sizing.
var kCandidates = func() []int {
	var ks []int
	for k := 1; k <= 1<<20; {
		ks = append(ks, k)
		if k < 64 {
			k++
		} else {
			k += k / 50
		}
	}
	return ks
}()

// stageARow holds one step's likelihood terms for every K candidate,
// index-aligned with kCandidates: logP is ln pEmpty after the clamps,
// and logQ is ln(1−pEmpty), or 0 when 1−pEmpty rounds to 1. Rows are
// immutable once published.
type stageARow struct {
	logP, logQ []float64
}

// stageARowSteps bounds the memo: from step 1075 on, p = 2^−step rounds
// to 0, so every later step's row is step 1075's. A row is about 9 KB; a
// default session (MaxSteps 48) touches at most 48 of them.
const stageARowSteps = 1075

// stageARows memoizes the rows by step, built on first use. Concurrent
// sessions may race to build one; each builds the same values, and the
// first published row is the one every caller reads.
var stageARows [stageARowSteps + 1]atomic.Pointer[stageARow]

// stageARowFor returns step's row (step ≥ 1), building it on first use.
func stageARowFor(step int) *stageARow {
	step = min(step, stageARowSteps)
	if r := stageARows[step].Load(); r != nil {
		return r
	}
	r := newStageARow(step)
	if stageARows[step].CompareAndSwap(nil, r) {
		return r
	}
	return stageARows[step].Load()
}

// newStageARow evaluates step's likelihood terms for every candidate.
func newStageARow(step int) *stageARow {
	p := math.Pow(2, -float64(step))
	logQ1 := math.Log1p(-p) // ln(1−p)
	logFloor, logCeil := math.Log(pFloor), math.Log(pCeil)
	r := &stageARow{logP: make([]float64, len(kCandidates)), logQ: make([]float64, len(kCandidates))}
	for c, k := range kCandidates {
		// pEmpty = (1−p)^K = exp(K·ln(1−p)). Below K·ln(1−p) = −691 it
		// is under e^−691 < pFloor, so the floor applies without
		// evaluating exp.
		logP := float64(k) * logQ1
		pEmpty := 0.0
		if logP >= -691 {
			pEmpty = math.Exp(logP)
		}
		if pEmpty < pFloor {
			pEmpty, logP = pFloor, logFloor
		}
		if pEmpty > pCeil {
			pEmpty, logP = pCeil, logCeil
		}
		r.logP[c] = logP
		if q := 1 - pEmpty; q != 1 {
			r.logQ[c] = math.Log(q)
		}
	}
	return r
}

// addStep adds one step's log-likelihood terms to ll (one entry per
// candidate): the step saw empty of s slots empty. The busy-slot term
// is an exact ±0 when the step had no busy slot or 1−pEmpty rounds to 1
// (logQ = 0); a zero term can change only the sign of a zero sum, which
// the likelihood absorbs: it starts at +0, so it is never −0.
func addStep(ll []float64, step, s, empty int) {
	r := stageARowFor(step)
	e, busy := float64(empty), float64(s-empty)
	logP, logQ := r.logP[:len(ll)], r.logQ[:len(ll)]
	for c := range ll {
		ll[c] += e*logP[c] + busy*logQ[c]
	}
}

// kEstimate returns the candidate with the largest log-likelihood in
// ll (the first one, in scan order, on a tie) and that log-likelihood.
func kEstimate(ll []float64) (kHat int, bestLL float64) {
	kHat, bestLL = 1, math.Inf(-1)
	for c, v := range ll {
		if v > bestLL {
			bestLL, kHat = v, kCandidates[c]
		}
	}
	return kHat, bestLL
}
