// Trial derivation: the one place a scenario trial's randomness is
// drawn. Buzz works because the tags and the reader derive the same
// participation from shared PRNG state (§6a), and the repository runs
// that protocol two ways — in process (sim.Run) and over the wire
// (engine/replay against buzzd). Both call Spec.Trial and resolve the
// decode windows through DecodeSpec.WindowPolicy, so the two ends draw
// the same trial by construction rather than by keeping copies equal.
package scenario

import (
	"repro/internal/bits"
	"repro/internal/channel"
	"repro/internal/prng"
	"repro/internal/ratedapt"
)

// Trial is one trial's setup draws over a resolved roster.
type Trial struct {
	// Messages are the roster tags' payloads, in roster order.
	Messages []bits.Vector
	// Channel is the initial channel model drawn from the SNR band, one
	// tap per roster tag: the static baselines' channel and the start
	// of Static and Gauss–Markov processes.
	Channel *channel.Model
	// Tags is the roster the data phase runs: each tag's participation
	// seed, message and presence window.
	Tags []ratedapt.RosterTag
	// Salt is the data-phase session salt.
	Salt uint64
	// Process is the channel process over the full roster.
	Process channel.Process
	// Noise drives the air's receiver noise.
	Noise *prng.Source
	// DecodeSeed seeds the decoder's random restarts
	// (prng.NewSource(DecodeSeed) on whichever end decodes).
	DecodeSeed uint64
	// Setup is the rest of the trial's setup stream, for draws that
	// only some schemes make (the static baselines' forks).
	Setup *prng.Source
}

// TrialSource returns the setup stream of trial number trial under
// seed, prng.Mix2(seed, trial): the one per-trial seed rule of every
// trial set (Spec.Trial's draws, sim.RunIdentification's).
func TrialSource(seed uint64, trial int) *prng.Source {
	return prng.NewSource(prng.Mix2(seed, uint64(trial)))
}

// Trial makes trial number trial's setup draws over rost, in order:
// messages (skipped when msgs is non-nil; msgs must then hold one
// payload per roster tag), the SNR-band channel, the participation
// seeds, the session salt, the process seed (dynamic specs only), the
// noise fork and the decode seed. The draws are a pure function of
// (spec, roster, trial, msgs). The spec must have defaults applied.
func (s Spec) Trial(rost Roster, trial int, msgs []bits.Vector) Trial {
	setup := TrialSource(s.Seed, trial)
	k := len(rost.Windows)
	if msgs == nil {
		msgs = make([]bits.Vector, k)
		for i := range msgs {
			msgs[i] = bits.Random(setup, s.Workload.MessageBits)
		}
	}
	ch := channel.NewFromSNRBand(k, s.Channel.SNRLodB, s.Channel.SNRHidB, setup)
	ch.AGCNoiseFraction = s.Channel.AGCNoiseFraction
	tags := make([]ratedapt.RosterTag, k)
	for i, w := range rost.Windows {
		tags[i] = ratedapt.RosterTag{
			Seed:       setup.Uint64(),
			Message:    msgs[i],
			ArriveSlot: w.ArriveSlot,
			DepartSlot: w.DepartSlot,
		}
	}
	t := Trial{Messages: msgs, Channel: ch, Tags: tags, Salt: setup.Uint64()}
	// A static spec is the degenerate stream (a frozen channel, an
	// event-free roster) and draws no process seed.
	var procSeed uint64
	if s.Dynamic() {
		procSeed = setup.Uint64()
	}
	t.Process = s.NewProcessRoster(ch, procSeed, rost.Rho)
	t.Noise = setup.Fork(1)
	t.DecodeSeed = prng.Mix2(setup.Uint64(), 2)
	t.Setup = setup
	return t
}

// WindowPolicy maps the section's window key to the decoder's
// coherence-window policy.
func (d DecodeSpec) WindowPolicy() ratedapt.WindowPolicy {
	switch d.Window {
	case WindowAuto:
		return ratedapt.AutoWindow()
	case WindowFixed:
		return ratedapt.FixedWindow(d.DecodeWindow)
	case WindowPerTag:
		return ratedapt.PerTagWindow(false)
	}
	return ratedapt.WindowNone()
}
