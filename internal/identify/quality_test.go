package identify

import (
	"fmt"
	"math/cmplx"
	"testing"

	"repro/internal/channel"
	"repro/internal/scratch"
)

// qualitySession runs drawSession on the arena sc and fails the test on
// an error.
func qualitySession(t testing.TB, seed uint64, k int, loDB, hiDB, agc float64, sc *scratch.Scratch) ([]uint64, *channel.Model, *Result) {
	ids, ch, res, err := drawSession(seed, k, loDB, hiDB, agc, Config{Scratch: sc})
	if err != nil {
		t.Fatalf("seed %d k %d band %g–%g dB agc %g: %v", seed, k, loDB, hiDB, agc, err)
	}
	return ids, ch, res
}

// stageCTally scores identification outputs against the truth.
type stageCTally struct {
	sessions, tags int
	// identified counts reported temporary ids that belong to exactly
	// one present tag (Match's definition); phantoms counts reported
	// ids that belong to none. An id two tags drew counts as neither.
	identified, phantoms int
	// tapErr sums |ĥ − h| over the identified tags.
	tapErr float64
}

func (q *stageCTally) add(ids []uint64, ch *channel.Model, res *Result) {
	owner := map[uint64]int{}
	for i, id := range ids {
		tid := TempIDFor(id, res.SessionSalt(), res.IDSpace)
		if _, dup := owner[tid]; dup {
			owner[tid] = -1
		} else {
			owner[tid] = i
		}
	}
	q.sessions++
	q.tags += len(ids)
	for _, ident := range res.Identified {
		i, ok := owner[ident.TempID]
		switch {
		case !ok:
			q.phantoms++
		case i >= 0:
			q.identified++
			q.tapErr += cmplx.Abs(ident.Tap - ch.Taps[i])
		}
	}
}

func (q stageCTally) meanTapErr() float64 { return q.tapErr / float64(q.identified) }

// TestStageCQuality pins stage C's recovery over 60 seeds at K = 4, 8,
// …, 24, in three SNR bands, with and without the receiver's AGC noise:
// per row, the identified tags and phantom ids exactly, and the mean
// tap error |ĥ − h| under a bound. A change to the pursuit's stopping
// rules or to the options identify.Run passes moves these rows; it must
// identify no fewer tags, report no more phantoms and estimate taps no
// worse, and re-pin here with the parent's row beside the new one.
//
// The pursuit stops at a quarter of MinCoeffMag (cs.OMPOptions). At
// half of it, this test fails: the low band loses identified tags.
func TestStageCQuality(t *testing.T) {
	type row struct {
		loDB, hiDB, agc      float64
		identified, phantoms int
		maxTapErr            float64
	}
	// Each row is 360 sessions with 5,040 tags. Before the pursuit
	// stopped at its floor, the rows read, in order (identified,
	// phantoms, mean tap error): 3803/75/0.464, 5022/7/0.160,
	// 5028/0/0.158, 3802/89/0.472, 5024/7/0.428 and 5028/5109/2.254.
	// The last row's phantoms, about 14 a session, come from a
	// residual tolerance and a coefficient floor that see N₀ but not
	// the AGC noise.
	rows := []row{
		{5, 15, 0, 3811, 68, 0.422},
		{14, 30, 0, 5022, 7, 0.161},
		{30, 45, 0, 5028, 0, 0.158},
		{5, 15, 0.002, 3821, 77, 0.430},
		{14, 30, 0.002, 5024, 7, 0.366},
		{30, 45, 0.002, 5028, 5109, 2.254},
	}
	sc := scratch.New()
	for _, r := range rows {
		t.Run(fmt.Sprintf("%g-%gdB/agc%g", r.loDB, r.hiDB, r.agc), func(t *testing.T) {
			var q stageCTally
			for seed := uint64(0); seed < 60; seed++ {
				for k := 4; k <= 24; k += 4 {
					ids, ch, res := qualitySession(t, seed, k, r.loDB, r.hiDB, r.agc, sc)
					q.add(ids, ch, res)
					sc.Reset()
				}
			}
			t.Logf("%d sessions, %d tags: %d identified, %d phantoms, mean tap error %.3f",
				q.sessions, q.tags, q.identified, q.phantoms, q.meanTapErr())
			if q.identified != r.identified || q.phantoms != r.phantoms {
				t.Errorf("identified %d, phantoms %d; pinned %d, %d", q.identified, q.phantoms, r.identified, r.phantoms)
			}
			if e := q.meanTapErr(); !(e <= r.maxTapErr) {
				t.Errorf("mean tap error %.4f above %g", e, r.maxTapErr)
			}
		})
	}
}

// TestStageCIterationsHeadline pins the total number of stage-C pursuit
// iterations over a headline-shaped sweep (K 4–16, 14–30 dB, AGC
// 0.002, ten seeds): the solver's work, counted rather than timed, so
// the pin holds on any machine. The pursuit's stop at a quarter of
// MinCoeffMag took this total from 2,066 to the pin.
func TestStageCIterationsHeadline(t *testing.T) {
	const want = 1482
	sc := scratch.New()
	total := 0
	for seed := uint64(0); seed < 10; seed++ {
		for k := 4; k <= 16; k++ {
			_, _, res := qualitySession(t, seed, k, 14, 30, 0.002, sc)
			total += res.CSIterations
			sc.Reset()
		}
	}
	if total != want {
		t.Fatalf("stage-C pursuit iterations over the headline sweep: %d, pinned %d", total, want)
	}
}
