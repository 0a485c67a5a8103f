package ratedapt

import (
	"reflect"
	"testing"

	"repro/internal/bits"
	"repro/internal/bp"
	"repro/internal/channel"
	"repro/internal/prng"
)

// dynamicTestRoster builds a roster over the scratchTestSetup channel:
// msgs/seeds are drawn exactly as scratchTestSetup draws them so the
// event-free roster matches the static Config tag for tag.
func dynamicTestRoster(k int, seed uint64) (Config, []RosterTag, *channel.Model) {
	cfg, msgs, ch := scratchTestSetup(k, seed)
	roster := make([]RosterTag, k)
	for i := range roster {
		roster[i] = RosterTag{Seed: cfg.Seeds[i], Message: msgs[i]}
	}
	cfg.Seeds = nil
	cfg.MaxSlots = 40 * k
	return cfg, roster, ch
}

// TestTransferDynamicStaticEquivalence pins the bridge between the
// scenario engine and the classic experiments: a TransferDynamic over a
// static channel process with an event-free roster must be
// byte-identical to Transfer with the same seeds — same PRNG
// consumption, same float operations, same Result.
func TestTransferDynamicStaticEquivalence(t *testing.T) {
	for _, k := range []int{1, 4, 9, 16} {
		cfg, roster, ch := dynamicTestRoster(k, 0xD15C+uint64(k))

		static := cfg
		static.Seeds = make([]uint64, k)
		msgs := make([]bits.Vector, k)
		for i, rt := range roster {
			static.Seeds[i] = rt.Seed
			msgs[i] = rt.Message
		}
		a, err := Transfer(static, msgs, ch, prng.NewSource(5), prng.NewSource(6))
		if err != nil {
			t.Fatal(err)
		}

		proc := channel.NewStatic(ch)
		b, err := TransferDynamic(cfg, roster, proc, proc, prng.NewSource(5), prng.NewSource(6))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*a, b.Result) {
			t.Fatalf("K=%d: dynamic static-process transfer diverged from Transfer:\nstatic:  %+v\ndynamic: %+v", k, *a, b.Result)
		}
		for i, r := range b.Retired {
			if r {
				t.Fatalf("K=%d: tag %d retired in an event-free roster", k, i)
			}
		}
	}
}

// dynamicChurnSetup builds a churning, drifting workload: Gauss–Markov
// taps with per-tag mobility, two late arrivals and one departure.
func dynamicChurnSetup(k int, seed uint64) (Config, []RosterTag, channel.Process) {
	cfg, roster, ch := dynamicTestRoster(k, seed)
	rho := make([]float64, k)
	for i := range rho {
		rho[i] = 0.995
		if i%3 == 0 {
			rho[i] = 0.9 // the movers
		}
	}
	proc := channel.NewGaussMarkov(ch, rho, seed^0x6A55)
	roster[k-1].ArriveSlot = 4
	roster[k-2].ArriveSlot = 3
	roster[0].DepartSlot = 6
	cfg.MaxSlots = 60 * k
	return cfg, roster, proc
}

// TestTransferDynamicOwnSessionMatchesPooled pins that a caller-owned
// session decodes a dynamic transfer (arrivals, departures and
// Gauss–Markov channel drift) byte-identically to a pooled one.
func TestTransferDynamicOwnSessionMatchesPooled(t *testing.T) {
	for _, k := range []int{4, 9} {
		cfg, roster, _ := dynamicChurnSetup(k, 0xC4A7+uint64(k))

		proc := func() channel.Process {
			_, _, p := dynamicChurnSetup(k, 0xC4A7+uint64(k))
			return p
		}

		a, err := TransferDynamic(cfg, roster, proc(), proc(), prng.NewSource(1), prng.NewSource(2))
		if err != nil {
			t.Fatal(err)
		}

		own := cfg
		own.Session = bp.NewSession()
		b, err := TransferDynamic(own, roster, proc(), proc(), prng.NewSource(1), prng.NewSource(2))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("K=%d: own-session dynamic transfer diverged from pooled:\npooled: %+v\nown:    %+v", k, a, b)
		}
	}
}

// TestTransferDynamicChurnDelivers checks the headline behaviour the
// scenario engine exists for: under mid-round churn and channel drift,
// tags that stay in the field still deliver, arrivals join the code
// without restarting the round, and the departed tag is reported
// retired rather than silently dropped. Mobility here is realistic for
// EPC slot durations (ρ ≥ 0.99 per slot); the decoder's constant-tap
// model — and its margin gates — are only meaningful inside the
// channel's coherence time, and dynamicChurnSetup's harsher drift is
// reserved for the determinism test above.
func TestTransferDynamicChurnDelivers(t *testing.T) {
	const k = 8
	cfg, roster, _ := dynamicChurnSetup(k, 0xFADE)
	_, _, ch := dynamicTestRoster(k, 0xFADE)
	rho := make([]float64, k)
	for i := range rho {
		rho[i] = 0.998
		if i%3 == 0 {
			rho[i] = 0.99 // the movers
		}
	}
	proc := channel.NewGaussMarkov(ch, rho, 0xFADE^0x6A55)
	reidents := 0
	cfg.OnArrival = func(slot int, arriving []int, present int) int {
		reidents++
		return 100 * len(arriving)
	}
	res, err := TransferDynamic(cfg, roster, proc, proc, prng.NewSource(3), prng.NewSource(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.SlotsUsed == 0 || len(res.Progress) != res.SlotsUsed {
		t.Fatalf("inconsistent progress: %d slots, %d entries", res.SlotsUsed, len(res.Progress))
	}
	if reidents == 0 || res.ReidentBitSlots == 0 {
		t.Fatalf("arrivals did not trigger re-identification (calls=%d, slots=%d)", reidents, res.ReidentBitSlots)
	}
	delivered := 0
	for i := range roster {
		if res.Verified[i] {
			delivered++
			if !bits.PayloadOf(res.Frames[i], cfg.CRC).Equal(roster[i].Message) {
				t.Errorf("tag %d delivered a wrong payload", i)
			}
		}
	}
	// The departing tag leaves at slot 6; everyone else should make it
	// on this benign channel.
	if delivered < k-1 {
		t.Errorf("only %d/%d messages delivered under churn", delivered, k)
	}
	if res.Retired[0] && res.Verified[0] {
		t.Error("tag 0 both retired and verified")
	}
	for i := 1; i < k; i++ {
		if res.Retired[i] {
			t.Errorf("tag %d retired but never departed", i)
		}
	}
}

// TestTransferDynamicValidation exercises the config/roster guards.
func TestTransferDynamicValidation(t *testing.T) {
	cfg, roster, ch := dynamicTestRoster(4, 0xBAD)
	proc := channel.NewStatic(ch)

	bad := cfg
	bad.Seeds = []uint64{1}
	if _, err := TransferDynamic(bad, roster, proc, proc, prng.NewSource(1), prng.NewSource(2)); err == nil {
		t.Error("Config.Seeds accepted")
	}
	bad = cfg
	bad.RefineChannel = true
	if _, err := TransferDynamic(bad, roster, proc, proc, prng.NewSource(1), prng.NewSource(2)); err == nil {
		t.Error("RefineChannel accepted")
	}
	unordered := append([]RosterTag(nil), roster...)
	unordered[1].ArriveSlot = 9
	if _, err := TransferDynamic(cfg, unordered, proc, proc, prng.NewSource(1), prng.NewSource(2)); err == nil {
		t.Error("unordered roster accepted")
	}
	early := append([]RosterTag(nil), roster...)
	for i := range early {
		early[i].ArriveSlot = 5
	}
	if _, err := TransferDynamic(cfg, early, proc, proc, prng.NewSource(1), prng.NewSource(2)); err == nil {
		t.Error("empty initial population accepted")
	}
	// Departures must retire a roster prefix in slot order: a departing
	// tag behind one that stays, or one that departs before the tag
	// ahead of it, is rejected.
	for name, departs := range map[string][]int{"after-a-stayer": {0, 9}, "out-of-order": {9, 7}} {
		unfifo := append([]RosterTag(nil), roster...)
		for i, d := range departs {
			unfifo[i].DepartSlot = d
		}
		if _, err := TransferDynamic(cfg, unfifo, proc, proc, prng.NewSource(1), prng.NewSource(2)); err == nil {
			t.Errorf("%s: roster whose departures are not a prefix in slot order accepted", name)
		}
	}
}
