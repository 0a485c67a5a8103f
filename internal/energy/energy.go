// Package energy models tag-side energy consumption the way the paper
// measures it (§9, Fig. 13): a storage capacitor drains from V₀ to V_f
// over a long sequence of queries, and the consumed energy is
//
//	E = ½·C·V₀² − ½·C·V_f²
//
// What drains the capacitor differs per scheme, and the differences are
// exactly what Fig. 13 shows:
//
//   - Impedance switching: every antenna-state toggle charges/discharges
//     the matching network. Miller-4 toggles ~8× per bit; OOK ~once.
//   - Active reflection time: the modulator and clock run while the tag
//     is transmitting. CDMA tags transmit for the whole spread frame
//     (Ns× longer), which is why CDMA dominates the figure.
//   - Baseline awake time: decoding reader commands and waiting.
//
// The absolute per-event costs are calibrated so that one 32-bit TDMA
// exchange lands in the paper's µJ range; what the reproduction asserts
// is the relative ordering and ratios, which come from event counts, not
// from the calibration constant.
package energy

// Cost parameterizes the per-event energy model. Units are joules.
type Cost struct {
	// PerSwitch is the energy per impedance toggle.
	PerSwitch float64
	// PerActiveBit is the energy per bit duration spent with the
	// modulator running (reflecting or deliberately loading).
	PerActiveBit float64
	// PerAwakeBit is the energy per bit duration spent awake but idle
	// (listening, waiting for the reader).
	PerAwakeBit float64
}

// DefaultCost is calibrated to the Moo's MSP430-class consumption at a
// 3 V supply, so one 32-bit exchange lands in the paper's
// microjoules-per-query range (Fig. 13's y-axis): the modulator draws
// ~mA-scale current for each actively driven bit duration, and each
// impedance toggle clocks the modulation path once.
func DefaultCost() Cost {
	return Cost{
		PerSwitch:    1.5e-8, // 15 nJ per toggle
		PerActiveBit: 4.0e-8, // 40 nJ per actively modulated bit duration
		PerAwakeBit:  5.0e-9, // 5 nJ per idle-awake bit duration
	}
}

// CostAtVoltage scales a 3 V-referenced cost model to supply voltage v:
// CMOS switching energy goes as V², which is why the paper's Fig. 13
// bars grow with the starting voltage.
func CostAtVoltage(c Cost, v float64) Cost {
	f := (v / 3) * (v / 3)
	return Cost{
		PerSwitch:    c.PerSwitch * f,
		PerActiveBit: c.PerActiveBit * f,
		PerAwakeBit:  c.PerAwakeBit * f,
	}
}

// Tally accumulates one tag's billable events over an experiment.
type Tally struct {
	// Switches counts impedance toggles.
	Switches int
	// ActiveBits counts bit durations spent modulating.
	ActiveBits float64
	// AwakeBits counts bit durations awake but idle.
	AwakeBits float64
}

// Add merges another tally.
func (t *Tally) Add(o Tally) {
	t.Switches += o.Switches
	t.ActiveBits += o.ActiveBits
	t.AwakeBits += o.AwakeBits
}

// Joules prices the tally under the cost model.
func (t *Tally) Joules(c Cost) float64 {
	return float64(t.Switches)*c.PerSwitch +
		t.ActiveBits*c.PerActiveBit +
		t.AwakeBits*c.PerAwakeBit
}
