package replay

import (
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestSlotFramesListEachDepartureOnce pins the client's departure
// reporting: over the slots each trial uses (the batch run's SlotsUsed,
// which TestLoopbackConformance holds equal to the wire's), every
// departing tag appears in exactly one Slot frame's Departs, the frame
// of the slot its departure fires. mobility.json departs one tag per
// trial at slot 14 (24 trials); conveyor.json's dwell departs 63 tags
// over its six trials.
func TestSlotFramesListEachDepartureOnce(t *testing.T) {
	for _, c := range []struct {
		file string
		want int
	}{
		{"mobility.json", 24},
		{"conveyor.json", 63},
	} {
		t.Run(c.file, func(t *testing.T) {
			spec, err := scenario.Load("../../../examples/scenarios/" + c.file)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := sim.Run(spec, sim.WithTrialDetail())
			if err != nil {
				t.Fatal(err)
			}
			rost, err := spec.ResolveRoster()
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for trial := range batch.Trials {
				st, err := newTrialState(spec, trial)
				if err != nil {
					t.Fatal(err)
				}
				listed := make([]bool, len(rost.Windows))
				for slot := 1; slot <= batch.Trials[trial].SlotsUsed; slot++ {
					for _, i := range st.synthSlot(slot).Departs {
						if listed[i] {
							t.Fatalf("trial %d slot %d: tag %d departs again", trial, slot, i)
						}
						if d := rost.Windows[i].DepartSlot; d != slot {
							t.Fatalf("trial %d slot %d: tag %d listed as departing, departs at slot %d", trial, slot, i, d)
						}
						listed[i] = true
						total++
					}
				}
			}
			if total != c.want {
				t.Fatalf("slot frames list %d departures, want %d", total, c.want)
			}
		})
	}
}
