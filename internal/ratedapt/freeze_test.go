package ratedapt

import (
	"math"
	"slices"
	"testing"

	"repro/internal/bits"
	"repro/internal/channel"
	"repro/internal/prng"
)

// freezeCase is one churning roster for the freeze twin: k0 tags present
// from slot 1, then arrivals one every 1–gap slots, every tag leaving
// dwell slots after it arrives, over Gauss–Markov taps with per-tag ρ
// drawn from [rhoLo, 1).
type freezeCase struct {
	seed            uint64
	k0, arrivals    int
	gap, dwell      int
	rhoLo           float64
	window          WindowPolicy
	restarts, slots int
}

// freezeSide is one side of the twin: a stream walked over its own
// channel process, air and sources.
type freezeSide struct {
	st   *Stream
	walk RosterWalk
	proc channel.Process
	air  airFunc
}

// newFreezeSide opens one side of c's trial. Both sides draw the same
// roster, channel and sources from c.seed.
func newFreezeSide(t *testing.T, c freezeCase) *freezeSide {
	t.Helper()
	src := prng.NewSource(c.seed)
	kTot := c.k0 + c.arrivals
	roster := make([]RosterTag, kTot)
	rho := make([]float64, kTot)
	arrive := 1
	for i := range roster {
		if i >= c.k0 {
			arrive += 1 + src.IntN(c.gap)
		}
		roster[i] = RosterTag{Seed: src.Uint64(), Message: bits.Random(src, 16), ArriveSlot: arrive, DepartSlot: arrive + c.dwell}
		rho[i] = c.rhoLo + (1-c.rhoLo)*src.Float64()
	}
	init := channel.NewFromSNRBand(kTot, 6, 24, src)
	proc := channel.NewGaussMarkov(init, rho, src.Uint64())
	win, wins, confirm := c.window.Resolve(proc, c.slots, kTot)
	walk, err := NewRosterWalk(roster, wins)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]bits.Vector, kTot)
	for i := range roster {
		frames[i] = bits.Message{Payload: roster[i].Message, Kind: bits.CRC5}.Frame()
	}
	k0 := walk.Arrived()
	seeds := make([]uint64, k0)
	for i := range seeds {
		seeds[i] = roster[i].Seed
	}
	var winTag0 []int
	if wins != nil {
		winTag0 = wins[:k0]
	}
	st, err := OpenStream(StreamConfig{
		SessionSalt:   src.Uint64(),
		CRC:           bits.CRC5,
		Restarts:      c.restarts,
		MessageBits:   16,
		MaxSlots:      c.slots,
		WindowSlots:   win,
		WindowTag:     winTag0,
		ConfirmWindow: confirm,
		Seeds:         seeds,
		Taps:          proc.ModelAt(1).Taps[:k0],
		RosterCap:     kTot,
		DecodeSrc:     src.Fork(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &freezeSide{st: st, walk: walk, proc: proc, air: processAir(proc, src.Fork(1), nil)(frames)}
}

// step runs one slot on the side, freezing what the stream reported
// quiescent when freeze is set.
func (s *freezeSide) step(t *testing.T, slot int, freeze bool) StepResult {
	t.Helper()
	if freeze {
		for _, i := range s.st.NewlyQuiescent() {
			s.proc.Freeze(i)
		}
	}
	row, err := s.st.Advance(s.walk.Next(slot, s.proc))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.st.BeginIngest(s.air(slot, row, s.st.cols)); err != nil {
		t.Fatal(err)
	}
	j := s.st.SlotJob()
	j.S.DecodeSlot(j.Slot, j.Locked, j.Base, j.MinMargin, j.Ambiguous)
	step, err := s.st.FinishIngest()
	if err != nil {
		t.Fatal(err)
	}
	return step
}

// freezeTwin runs c's trial on two sides, slot by slot until the round
// ends: the production side freezes every tag its stream reports
// quiescent in its channel process (as TransferDynamic does) and installs only
// the live tags' taps; the reference side's stream finds nothing
// quiescent (noQuiesce), so its process evolves every tag and every
// retap installs every joined tag's tap, as before the freeze existed.
// After every slot the two must agree bitwise: StepResult, DecodeCost,
// every tag's margin and ambiguity flag, every position's bits, the
// accepted frames, and the gates' drift inputs (DriftFraction, and
// DriftFractionTag of every unlocked tag). Returns how many tags the
// production side froze.
func freezeTwin(t *testing.T, c freezeCase) int {
	t.Helper()
	prod, ref := newFreezeSide(t, c), newFreezeSide(t, c)
	ref.st.noQuiesce = true
	defer prod.st.Close()
	defer ref.st.Close()
	kTot := c.k0 + c.arrivals
	frozen := 0
	for slot := 1; slot <= c.slots && !(prod.walk.Arrived() == kTot && prod.st.Done()); slot++ {
		frozen += len(prod.st.NewlyQuiescent())
		a, b := prod.step(t, slot, true), ref.step(t, slot, false)
		if a != b {
			t.Fatalf("case %+v slot %d: step %+v, unfrozen %+v", c, slot, a, b)
		}
		if ca, cb := prod.st.TakeDecodeCost(), ref.st.TakeDecodeCost(); ca != cb {
			t.Fatalf("case %+v slot %d: decode cost %+v, unfrozen %+v", c, slot, ca, cb)
		}
		pa, pb := prod.st, ref.st
		for i := range pa.margin {
			if math.Float64bits(pa.margin[i]) != math.Float64bits(pb.margin[i]) || pa.ambiguous[i] != pb.ambiguous[i] {
				t.Fatalf("case %+v slot %d tag %d: margin %v ambiguous %v, unfrozen %v %v",
					c, slot, i, pa.margin[i], pa.ambiguous[i], pb.margin[i], pb.ambiguous[i])
			}
			if !pa.frames[i].Equal(pb.frames[i]) {
				t.Fatalf("case %+v slot %d tag %d: frame %v, unfrozen %v", c, slot, i, pa.frames[i], pb.frames[i])
			}
		}
		if da, db := pa.sess.DriftFraction(), pb.sess.DriftFraction(); math.Float64bits(da) != math.Float64bits(db) {
			t.Fatalf("case %+v slot %d: drift fraction %v, unfrozen %v", c, slot, da, db)
		}
		if pa.wins != nil {
			for _, i := range pa.sess.UnlockedTags() {
				if da, db := pa.sess.DriftFractionTag(i), pb.sess.DriftFractionTag(i); math.Float64bits(da) != math.Float64bits(db) {
					t.Fatalf("case %+v slot %d tag %d: drift fraction %v, unfrozen %v", c, slot, i, da, db)
				}
			}
		}
		for p := 0; p < pa.frameLen; p++ {
			if !slices.Equal(pa.sess.PosBits(p), pb.sess.PosBits(p)) {
				t.Fatalf("case %+v slot %d position %d: bits differ from unfrozen", c, slot, p)
			}
		}
	}
	return frozen
}

// freezeCases covers departures under no window, a global auto window
// (drift banking armed) and per-tag windows, at slow and fast drift.
func freezeCases() []freezeCase {
	var cs []freezeCase
	for x, w := range []WindowPolicy{WindowNone(), AutoWindow(), PerTagWindow(false)} {
		for y, rhoLo := range []float64{0.999, 0.95} {
			cs = append(cs, freezeCase{
				seed: 0xF2EE2E + uint64(10*x+y), k0: 4, arrivals: 40, gap: 5, dwell: 30,
				rhoLo: rhoLo, window: w, restarts: 2, slots: 400,
			})
		}
	}
	return cs
}

// TestFreezeTwin runs the freeze twin (freezeTwin) over departures under
// no window, a global window and per-tag windows, and fails unless every
// case froze tags.
func TestFreezeTwin(t *testing.T) {
	for _, c := range freezeCases() {
		if n := freezeTwin(t, c); n == 0 {
			t.Fatalf("case %+v froze no tag", c)
		} else {
			t.Logf("window %+v rhoLo %v: %d of %d tags frozen", c.window, c.rhoLo, n, c.k0+c.arrivals)
		}
	}
}

// FuzzFreezeTwin is freezeTwin over fuzzed rosters: population shape,
// drift, window policy and restarts.
func FuzzFreezeTwin(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(20), uint8(4), uint8(20), uint8(0), uint8(0))
	f.Add(uint64(7), uint8(2), uint8(30), uint8(2), uint8(12), uint8(1), uint8(200))
	f.Add(uint64(9), uint8(5), uint8(25), uint8(6), uint8(40), uint8(2), uint8(100))
	f.Fuzz(func(t *testing.T, seed uint64, k0, arrivals, gap, dwell, window, rho uint8) {
		pol := []WindowPolicy{WindowNone(), AutoWindow(), PerTagWindow(false)}[int(window)%3]
		freezeTwin(t, freezeCase{
			seed: seed, k0: 1 + int(k0)%6, arrivals: int(arrivals) % 40, gap: 1 + int(gap)%8,
			dwell: 2 + int(dwell)%48, rhoLo: 0.9 + 0.0999*float64(rho)/255, window: pol,
			restarts: int(window/3) % 3, slots: 300,
		})
	})
}
