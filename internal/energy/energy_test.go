package energy

import (
	"math"
	"testing"
)

func TestTallyPricing(t *testing.T) {
	cost := Cost{PerSwitch: 2, PerActiveBit: 3, PerAwakeBit: 5}
	tally := Tally{Switches: 10, ActiveBits: 4, AwakeBits: 2}
	if got := tally.Joules(cost); got != 10*2+4*3+2*5 {
		t.Fatalf("Joules = %v", got)
	}
}

func TestTallyAdd(t *testing.T) {
	a := Tally{Switches: 1, ActiveBits: 2, AwakeBits: 3}
	a.Add(Tally{Switches: 4, ActiveBits: 5, AwakeBits: 6})
	if a.Switches != 5 || a.ActiveBits != 7 || a.AwakeBits != 9 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestDefaultCostOrdersSchemes(t *testing.T) {
	// The defining Fig. 13 relationships, expressed as event tallies for
	// one 37-bit message with K = 8:
	//   OOK (Buzz-like, ~4 transmissions): moderate switching, 4 frames active
	//   Miller TDMA: ~8× switching, 1 frame active
	//   CDMA: spread over 8× the time, always active, chip-rate switching
	cost := DefaultCost()
	const frame = 37.0
	buzz := Tally{Switches: 4 * 18, ActiveBits: 4 * frame}
	tdmaT := Tally{Switches: 8 * 37, ActiveBits: frame}
	cdma := Tally{Switches: 4 * 37 * 8, ActiveBits: frame * 8}
	eb, et, ec := buzz.Joules(cost), tdmaT.Joules(cost), cdma.Joules(cost)
	if !(ec > 2*et) {
		t.Fatalf("CDMA (%g) should dwarf TDMA (%g)", ec, et)
	}
	if eb > 2.5*et || et > 2.5*eb {
		t.Fatalf("Buzz (%g) and TDMA (%g) should be comparable", eb, et)
	}
}

func TestCostAtVoltageScaling(t *testing.T) {
	c := DefaultCost()
	at5 := CostAtVoltage(c, 5)
	want := 25.0 / 9.0
	if math.Abs(at5.PerSwitch/c.PerSwitch-want) > 1e-12 {
		t.Fatalf("5 V scaling %v, want %v", at5.PerSwitch/c.PerSwitch, want)
	}
	at3 := CostAtVoltage(c, 3)
	if at3 != c {
		t.Fatal("3 V must be the identity")
	}
}
