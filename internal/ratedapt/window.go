package ratedapt

import (
	"repro/internal/bp"
	"repro/internal/channel"
)

// WindowPolicy selects how much collision history the decoder explains
// with the current channel taps. The classic decoder (the zero value)
// explains every accumulated slot — exactly right when taps are frozen
// for the round, but under fast fading rows older than the channel's
// coherence time carry vanishing information about the current taps
// and turn into model error: transfers stretch and the margin gates
// lose the calibration their false-accept protection rests on. A
// windowed policy retires rows as they age out (bp.Session.Retire), so
// the decoder only ever explains observations the current taps can
// still explain, and scales the margin thresholds by the session's
// accumulated in-window drift energy (bp.Session.DriftFraction) so the
// gates stay honest about the residual model error that remains.
type WindowPolicy struct {
	// Slots keeps only the most recent Slots collision slots live in
	// the decode graph; 0 (with Auto unset) disables windowing.
	Slots int
	// Auto derives the window from the decoder channel's coherence
	// time (channel.Process.CoherenceSlots, the ρ → slots inverse of
	// channel.RhoFromDoppler's Doppler → ρ map) at transfer start,
	// floored at MinAutoWindow so the code stays decodable; Slots is
	// ignored. On an infinitely coherent (static) channel Auto
	// disables windowing — the classic decoder is optimal there.
	Auto bool
	// PerTag gives every tag its own auto window, derived from that
	// tag's coherence time (channel.Process.CoherenceSlotsTag) — the
	// heterogeneous-mobility policy: one global window forces parked
	// tags to discard good evidence whenever any mover's coherence
	// collapses, while per-tag windows age only the mover's rows out
	// (bp.Session.RetireTag). A tag whose channel is coherent forever
	// never windows. Takes precedence over Auto and Slots. On a static
	// channel every tag is coherent forever, so it resolves to no
	// window, like Auto.
	PerTag bool
}

// MinAutoWindow floors the Auto-derived window length. Below ~8 slots
// a tag has too few participations inside the window for the flip
// margins to pin its bits regardless of how short the coherence time
// is; at that point more history is model error the gate must absorb,
// but less history is no decoder at all.
const MinAutoWindow = 8

// WindowNone returns the classic unbounded policy.
func WindowNone() WindowPolicy { return WindowPolicy{} }

// FixedWindow returns a fixed w-slot window policy.
func FixedWindow(w int) WindowPolicy { return WindowPolicy{Slots: w} }

// AutoWindow returns the coherence-derived policy.
func AutoWindow() WindowPolicy { return WindowPolicy{Auto: true} }

// PerTagWindow returns the per-tag coherence-derived policy: each tag
// ages out of the decode on its own channel's clock, its stale rows
// removed (bp.Session.RetireTag). The soft parameter is what remains of
// the removed soft down-weighting mode: it stays so existing callers
// that pass a spec's WindowSoft flag keep compiling, and it must be
// false — scenario.Validate and OpenStream reject the flag before any
// policy is built, so true here is a caller bug.
func PerTagWindow(soft bool) WindowPolicy {
	if soft {
		panic("ratedapt: soft per-tag windows were removed; stale rows are always retired")
	}
	return WindowPolicy{PerTag: true}
}

// resolve returns the effective window length against a channel whose
// taps stay coherent for coherenceSlots slots (0 = forever); 0 means
// no window. A PerTag policy resolves to none here — its per-tag
// resolution is resolveTags.
func (w WindowPolicy) resolve(coherenceSlots int) int {
	if w.PerTag {
		return 0
	}
	if !w.Auto {
		if w.Slots < 0 {
			return 0
		}
		return w.Slots
	}
	if coherenceSlots <= 0 {
		return 0
	}
	if coherenceSlots < MinAutoWindow {
		return MinAutoWindow
	}
	return coherenceSlots
}

// EffectiveSlots resolves the policy's global window against a channel
// with the given coherence time and slot budget — resolve plus the
// can-never-outgrow clamp: a window the transfer can never outgrow would
// never retire a row, and its double-confirmation gate could never fire
// a second pass.
func (w WindowPolicy) EffectiveSlots(coherenceSlots, maxSlots int) int {
	win := w.resolve(coherenceSlots)
	if win >= maxSlots {
		win = 0
	}
	return win
}

// Resolve resolves the policy against the decoder process for a k-tag
// roster at the given slot budget: the global window (0 = none), under
// PerTag the per-tag windows (nil when no tag windows), and the confirm
// distance, the longest per-tag window. A Stream takes its windows
// pre-resolved, so every driver (runRound, the wire replay client)
// resolves here, over the full roster including tags that have not
// arrived yet.
func (w WindowPolicy) Resolve(proc channel.Process, maxSlots, k int) (win int, wins []int, confirm int) {
	win = w.EffectiveSlots(proc.CoherenceSlots(), maxSlots)
	if w.PerTag {
		wins = w.resolveTags(proc, maxSlots, k)
		for _, v := range wins {
			confirm = max(confirm, v)
		}
	}
	return win, wins, confirm
}

// slideWindow retires the rows that age out of a win-slot window after
// the given slot's decode and gates, returning the count (0 when the
// window is off or not yet full).
func slideWindow(sess *bp.Session, win, slot int) int {
	if win > 0 && slot > win {
		return sess.Retire(slot - win)
	}
	return 0
}

// resolveTags resolves a PerTag policy's per-tag effective windows
// against the decoder process, with resolve's floors and clamps: a tag
// coherent forever (parked, static, or clamped past the slot budget)
// never windows, and short coherence floors at MinAutoWindow. Returns
// nil when no tag windows at all — the policy then degenerates to the
// classic decode.
func (w WindowPolicy) resolveTags(proc channel.Process, maxSlots, k int) []int {
	wins := make([]int, k)
	any := false
	for i := range wins {
		v := 0
		if c := proc.CoherenceSlotsTag(i); c > 0 {
			v = c
			if v < MinAutoWindow {
				v = MinAutoWindow
			}
			if v >= maxSlots {
				v = 0
			}
		}
		wins[i] = v
		any = any || v > 0
	}
	if !any {
		return nil
	}
	return wins
}

// ResolveTagWindows reports the per-tag effective windows a PerTag
// policy would run with against proc at the given slot budget —
// exported for spec tooling (buzzsim check), so the printed summary
// cannot drift from the decode loop's own resolution.
func ResolveTagWindows(proc channel.Process, maxSlots, k int) []int {
	return WindowPolicy{PerTag: true}.resolveTags(proc, maxSlots, k)
}

// slideTagWindows retires each tag's rows that age out of its own
// window after the given slot's decode and gates, accumulating per-tag
// counts into retiredTag and returning the total. Locked tags age out
// too: a verified mover's stale contribution is model error for its
// neighbors all the same.
func slideTagWindows(sess *bp.Session, wins []int, nJoined, slot int, retiredTag []int) int {
	total := 0
	for i := 0; i < nJoined; i++ {
		w := wins[i]
		if w <= 0 || slot <= w {
			continue
		}
		if n := sess.RetireTag(i, slot-w); n > 0 {
			retiredTag[i] += n
			total += n
		}
	}
	return total
}
