// Package scenario defines the declarative workload specifications the
// simulator's scenario engine executes (sim.Run). A Spec fixes
// everything a workload needs — tag population, SNR band, channel
// process, decode budget, trial count — as plain data, loadable from
// JSON (`buzzsim run cart.json`) or built in code; the sim package
// turns it into channels, rosters and trials. The paper's hard-coded
// experiments (Fig. 10's data-phase comparison, Fig. 12's challenging
// bands) are just particular static Specs, and the goldens pin that a
// static Spec reproduces them byte for byte.
//
// The schema is versioned, and a document must say "version": 2. It
// groups the spec into sections — "workload" (who is in the field and
// when), "channel" (what the air does to them), "decode" (the reader's
// budget and window policy) — plus an optional "slo" block consumed by
// the capacity-sweep driver. Parse rejects the flat version-1 layout
// with an error that names it.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bits"
)

// Channel process kinds.
const (
	// KindStatic freezes taps for the whole round (the paper's model).
	KindStatic = "static"
	// KindBlockFading redraws every tap independently each BlockLen
	// slots.
	KindBlockFading = "block-fading"
	// KindGaussMarkov evolves taps by the first-order correlated-
	// Rayleigh recursion with per-tag mobility coefficient ρ.
	KindGaussMarkov = "gauss-markov"
)

// Scheme names accepted in Spec.Schemes.
const (
	SchemeBuzz = "buzz"
	SchemeTDMA = "tdma"
	SchemeCDMA = "cdma"
)

// Decode-window policies accepted in DecodeSpec.Window.
const (
	// WindowNone keeps the classic whole-round decoder (the default).
	WindowNone = "none"
	// WindowAuto derives the window from the channel process's
	// coherence time (block length for block fading, the ρ → slots
	// half-correlation point for Gauss–Markov; no window on static).
	WindowAuto = "auto"
	// WindowFixed keeps the most recent DecodeWindow slots.
	WindowFixed = "fixed"
	// WindowPerTag derives one window per roster tag from that tag's
	// own coherence time — the heterogeneous-mobility policy: parked
	// tags keep their whole history while movers forget on their own
	// clocks.
	WindowPerTag = "per_tag"
)

// ChannelSpec is the "channel" section: the tap process and the
// receiver-side impairments every tag's air passes through.
type ChannelSpec struct {
	// Kind is one of the Kind* constants; empty means static.
	Kind string `json:"kind,omitempty"`
	// BlockLen is the block-fading coherence block in slots.
	BlockLen int `json:"block_len,omitempty"`
	// Rho is the Gauss–Markov mobility coefficient applied to every
	// tag, in (0, 1]; 1 freezes a tag.
	Rho float64 `json:"rho,omitempty"`
	// PerTagRho, when non-empty, overrides Rho per tag and must cover
	// the full roster (initial tags first, then arrivals in schedule
	// order) — how a fixed-roster spec mixes parked and moving tags.
	// Arrival-process workloads draw per-tag rho from the arrival
	// spec's rho band instead.
	PerTagRho []float64 `json:"per_tag_rho,omitempty"`
	// SNRLodB and SNRHidB bound the per-tag SNR band (Fig. 12's
	// channel-quality axis). Leaving BOTH at zero selects the default
	// 14–30 dB bench band; a band pinned exactly at {0, 0} needs
	// NoSNRDefault.
	SNRLodB float64 `json:"snr_lo_db"`
	SNRHidB float64 `json:"snr_hi_db"`
	// NoSNRDefault keeps a {0, 0} band literal (every tap exactly at
	// the noise floor) instead of selecting the default band — the
	// explicit form of "zero", mirroring NoAGC. The classic experiment
	// wrappers set it: their Profile bands are explicit by
	// construction.
	NoSNRDefault bool `json:"no_snr_default,omitempty"`
	// AGCNoiseFraction is the receiver dynamic-range impairment; 0
	// takes the default bench value 0.002.
	AGCNoiseFraction float64 `json:"agc_noise_fraction,omitempty"`
	// NoAGC disables the dynamic-range impairment outright (an ideal
	// front end) — the explicit form of "zero", which would otherwise
	// mean "default".
	NoAGC bool `json:"no_agc,omitempty"`
}

// Validate checks the channel section's local invariants. Cross-section
// checks (per-tag rho length versus the roster, window compatibility)
// live in Spec.Validate.
func (c ChannelSpec) Validate() error {
	if c.SNRHidB < c.SNRLodB {
		return fmt.Errorf("scenario: snr band [%v, %v] is inverted", c.SNRLodB, c.SNRHidB)
	}
	switch c.Kind {
	case KindStatic:
	case KindBlockFading:
		if c.BlockLen < 1 {
			return fmt.Errorf("scenario: block-fading needs block_len >= 1, got %d", c.BlockLen)
		}
	case KindGaussMarkov:
		for i, r := range c.PerTagRho {
			if r <= 0 || r > 1 {
				return fmt.Errorf("scenario: rho[%d] = %v outside (0, 1]", i, r)
			}
		}
	default:
		return fmt.Errorf("scenario: unknown channel kind %q", c.Kind)
	}
	return nil
}

// PopulationEvent is one entry of the population schedule: tags joining
// and/or leaving immediately before the given collision slot.
type PopulationEvent struct {
	// Slot is the 1-based collision slot the event precedes; must be
	// ≥ 2 (slot-1 tags are the initial population) and strictly
	// increasing across events.
	Slot int `json:"slot"`
	// Arrive is the number of tags joining. Arrivals trigger a
	// re-identification burst whose slot cost the engine charges.
	Arrive int `json:"arrive,omitempty"`
	// Depart is the number of tags leaving; the longest-present tags
	// leave first (FIFO), and a departing tag's message — unless
	// already delivered — is lost.
	Depart int `json:"depart,omitempty"`
}

// WorkloadSpec is the "workload" section: who is in the field and when.
// A fixed roster is K initial tags plus an explicit Population
// schedule; an open-ended workload replaces the schedule with an
// arrival process (Arrivals) that ResolveRoster streams deterministically.
type WorkloadSpec struct {
	// K is the initial tag population (present from slot 1; the
	// dynamic engine needs at least one tag on the air at slot 1).
	K int `json:"k"`
	// MessageBits is the per-tag payload size; 0 means 32.
	MessageBits int `json:"message_bits,omitempty"`
	// Population schedules mid-round arrivals and departures
	// explicitly. Mutually exclusive with Arrivals.
	Population []PopulationEvent `json:"population,omitempty"`
	// Arrivals, when set, generates the population schedule from an
	// arrival process instead. Mutually exclusive with Population.
	Arrivals *ArrivalSpec `json:"arrivals,omitempty"`
}

// Validate checks the workload section's local invariants.
func (w WorkloadSpec) Validate() error {
	if w.K < 1 {
		return fmt.Errorf("scenario: k must be >= 1, got %d", w.K)
	}
	if w.MessageBits < 1 {
		return fmt.Errorf("scenario: message_bits must be >= 1, got %d", w.MessageBits)
	}
	if w.Arrivals != nil {
		if len(w.Population) > 0 {
			return fmt.Errorf("scenario: workload.population and workload.arrivals cannot be combined (the arrival process generates the schedule)")
		}
		if err := w.Arrivals.Validate(); err != nil {
			return err
		}
	}
	prev := 1
	for _, e := range w.Population {
		if e.Slot < 2 {
			return fmt.Errorf("scenario: population event at slot %d; mid-round events start at slot 2", e.Slot)
		}
		if e.Slot <= prev {
			return fmt.Errorf("scenario: population events must have strictly increasing slots (saw %d after %d)", e.Slot, prev)
		}
		prev = e.Slot
		if e.Arrive < 0 || e.Depart < 0 || (e.Arrive == 0 && e.Depart == 0) {
			return fmt.Errorf("scenario: event at slot %d must arrive and/or depart a positive number of tags", e.Slot)
		}
	}
	return nil
}

// DecodeSpec is the "decode" section: the reader's verification, budget
// and coherence-window policy.
type DecodeSpec struct {
	// CRC is "crc5" (default) or "crc16".
	CRC string `json:"crc,omitempty"`
	// Restarts is the decoder's extra random initializations per bit
	// position per slot; 0 means 2.
	Restarts int `json:"restarts,omitempty"`
	// MaxSlots caps the rateless round; 0 means 40 per roster tag.
	MaxSlots int `json:"max_slots,omitempty"`
	// Window selects the decoder's coherence-window policy: "" or
	// "none" (classic unbounded decode), "auto" (derive the window
	// from the channel process's coherence time — the fast-mobility
	// setting), "fixed" (keep the most recent DecodeWindow slots), or
	// "per_tag" (one window per roster tag).
	Window string `json:"window,omitempty"`
	// DecodeWindow is the fixed window length in collision slots;
	// setting it without Window implies "fixed".
	DecodeWindow int `json:"decode_window,omitempty"`
	// WindowSoft is the removed soft per-tag down-weighting mode's key.
	// It still parses, so an old spec gets Validate's explanation
	// instead of an unknown-field error, but true is rejected.
	WindowSoft bool `json:"window_soft,omitempty"`
}

// CRCKind maps the section's checksum name.
func (d DecodeSpec) CRCKind() (bits.CRCKind, error) {
	switch strings.ToLower(d.CRC) {
	case "crc5":
		return bits.CRC5, nil
	case "crc16":
		return bits.CRC16, nil
	}
	return 0, fmt.Errorf("scenario: unknown crc %q (want crc5 or crc16)", d.CRC)
}

// Validate checks the decode section's local invariants. The
// channel-dependent window checks live in Spec.Validate.
func (d DecodeSpec) Validate() error {
	if _, err := d.CRCKind(); err != nil {
		return err
	}
	if d.Restarts < 0 || d.MaxSlots < 1 {
		return fmt.Errorf("scenario: negative or zero budget (restarts %d, max_slots %d)", d.Restarts, d.MaxSlots)
	}
	switch d.Window {
	case "", WindowNone:
		if d.DecodeWindow != 0 {
			return fmt.Errorf("scenario: decode_window %d with window %q — use \"fixed\" (or drop decode_window)", d.DecodeWindow, d.Window)
		}
	case WindowAuto:
		if d.DecodeWindow != 0 {
			return fmt.Errorf("scenario: window \"auto\" derives the length from the channel — drop decode_window %d or use \"fixed\"", d.DecodeWindow)
		}
	case WindowFixed:
		if d.DecodeWindow < 1 {
			return fmt.Errorf("scenario: window \"fixed\" needs decode_window >= 1, got %d", d.DecodeWindow)
		}
		if d.DecodeWindow >= d.MaxSlots {
			return fmt.Errorf("scenario: decode_window %d is not below max_slots %d — the window could never slide", d.DecodeWindow, d.MaxSlots)
		}
	case WindowPerTag:
		if d.DecodeWindow != 0 {
			return fmt.Errorf("scenario: window \"per_tag\" derives each tag's window from its channel — drop decode_window %d or use \"fixed\"", d.DecodeWindow)
		}
	default:
		return fmt.Errorf("scenario: unknown window %q (want none, fixed, auto or per_tag)", d.Window)
	}
	if d.WindowSoft {
		return fmt.Errorf("scenario: window_soft was removed: per_tag windows always retire a tag's stale rows (drop the key)")
	}
	return nil
}

// Spec is a complete declarative workload (schema version 2).
type Spec struct {
	// Version is the schema version, 2. A parsed document must say so;
	// a Spec built in Go may leave it 0, which WithDefaults sets to 2.
	Version int `json:"version,omitempty"`
	// Name labels the scenario in reports.
	Name string `json:"name,omitempty"`
	// Trials is the number of independent channel/message draws.
	Trials int `json:"trials"`
	// Seed makes the whole scenario reproducible — including any
	// arrival process, whose draws are addressable functions of it.
	Seed uint64 `json:"seed"`
	// Workload says who is in the field and when.
	Workload WorkloadSpec `json:"workload"`
	// Channel selects the tap process and receiver impairments.
	Channel ChannelSpec `json:"channel,omitempty"`
	// Decode fixes the reader's budget and window policy.
	Decode DecodeSpec `json:"decode,omitempty"`
	// SLO, when set, declares the service-level objective the capacity
	// sweep (sim.Sweep) searches under. Plain runs ignore it.
	SLO *SLOSpec `json:"slo,omitempty"`
	// Schemes lists the contenders to run: "buzz" (always required),
	// plus optionally "tdma" and "cdma" on static population-free
	// specs. Empty means just buzz.
	Schemes []string `json:"schemes,omitempty"`
}

// Parse decodes a JSON spec, rejecting unknown fields (a typo in a
// workload file should fail loudly, not silently fall back to a
// default), and applies defaults. The document must say "version": 2.
func Parse(data []byte) (Spec, error) {
	// Version sniff: a loose pass that only reads the version number, so
	// that a document in the removed flat layout gets one error naming
	// it instead of a complaint about its first unknown key.
	var probe struct {
		Version int `json:"version"`
	}
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&probe); err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	if probe.Version != 2 {
		return Spec{}, versionError(probe.Version)
	}

	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	// One document per file: trailing content after the spec object —
	// a second object, a stray bracket from a botched merge — is a
	// malformed workload, not something to silently ignore.
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, fmt.Errorf("scenario: trailing content after the spec object (offset %d)", dec.InputOffset())
	}
	s = s.WithDefaults()
	return s, s.Validate()
}

// versionError rejects a spec that is not version 2. Version 0 is a
// document without the key, which is how the flat layout was written.
func versionError(v int) error {
	what := `spec has no "version": 2`
	if v != 0 {
		what = fmt.Sprintf("unsupported spec version %d", v)
	}
	return fmt.Errorf(`scenario: %s; the flat version-1 layout was removed: `+
		`say "version": 2 and move its keys into the "workload", "channel" and "decode" sections`, what)
}

// Load reads and parses a JSON spec file.
func Load(path string) (Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(raw)
	if err != nil {
		return Spec{}, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// WithDefaults fills the zero-value fields with the bench defaults the
// classic experiments use.
func (s Spec) WithDefaults() Spec {
	if s.Version == 0 {
		s.Version = 2
	}
	ch := &s.Channel
	if ch.SNRLodB == 0 && ch.SNRHidB == 0 && !ch.NoSNRDefault {
		ch.SNRLodB, ch.SNRHidB = 14, 30
	}
	switch {
	case ch.NoAGC:
		ch.AGCNoiseFraction = 0
	case ch.AGCNoiseFraction == 0:
		ch.AGCNoiseFraction = 0.002
	}
	if s.Workload.MessageBits == 0 {
		s.Workload.MessageBits = 32
	}
	if s.Decode.CRC == "" {
		s.Decode.CRC = "crc5"
	}
	if s.Decode.Restarts == 0 {
		s.Decode.Restarts = 2
	}
	if ch.Kind == "" {
		ch.Kind = KindStatic
	}
	if a := s.Workload.Arrivals; a != nil {
		// Clone before defaulting: Spec is a value type everywhere else,
		// and mutating a shared ArrivalSpec through the pointer would
		// leak defaults back into the caller's copy.
		a2 := *a
		if a2.StartSlot == 0 {
			a2.StartSlot = 2
		}
		s.Workload.Arrivals = &a2
	}
	if s.Decode.Window == "" && s.Decode.DecodeWindow > 0 {
		s.Decode.Window = WindowFixed
	}
	if s.Decode.MaxSlots == 0 {
		if a := s.Workload.Arrivals; a != nil {
			// The roster size depends on the schedule, which needs
			// MaxSlots to truncate against — break the cycle with the
			// schedule's upper bound (every requested arrival lands).
			s.Decode.MaxSlots = 40 * (s.Workload.K + a.Count)
		} else {
			s.Decode.MaxSlots = 40 * s.TotalTags()
		}
	}
	if len(s.Schemes) == 0 {
		s.Schemes = []string{SchemeBuzz}
	}
	return s
}

// Hash is the spec's content address: the first 16 hex digits of the
// SHA-256 of its canonical JSON encoding. Capacity reports carry it so
// a claimed number is checkable against the exact spec that produced
// it. Hash the loaded (defaults-applied) spec for a stable address.
func (s Spec) Hash() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Spec is plain data; Marshal cannot fail on it.
		panic("scenario: marshal spec: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// TotalTags returns the roster size: the initial population plus every
// scheduled arrival (for arrival-process workloads, after the schedule
// is materialized and truncated at max_slots).
func (s Spec) TotalTags() int {
	if a := s.Workload.Arrivals; a != nil {
		st, err := s.ArrivalStream()
		if err != nil {
			// No defaults yet (max_slots unset): the schedule cannot be
			// truncated, so every requested arrival counts.
			return s.Workload.K + a.Count
		}
		n := 0
		for {
			if _, ok := st.Next(); !ok {
				break
			}
			n++
		}
		return n
	}
	n := s.Workload.K
	for _, e := range s.Workload.Population {
		n += e.Arrive
	}
	return n
}

// Dynamic reports whether the spec needs the dynamic transfer engine —
// a time-varying channel, a population schedule, or an arrival process.
func (s Spec) Dynamic() bool {
	return s.Channel.Kind != KindStatic || len(s.Workload.Population) > 0 || s.Workload.Arrivals != nil
}

// CRCKind maps the spec's checksum name.
func (s Spec) CRCKind() (bits.CRCKind, error) {
	return s.Decode.CRCKind()
}

// HasScheme reports whether the spec runs the named scheme.
func (s Spec) HasScheme(name string) bool {
	for _, sch := range s.Schemes {
		if sch == name {
			return true
		}
	}
	return false
}

// Window is one tag's presence interval: present from ArriveSlot on,
// gone from DepartSlot on (0 = stays to the end).
type Window struct {
	ArriveSlot int
	DepartSlot int
}

// Arrive returns the effective arrival slot: ArriveSlot clamped up to 1
// ("present from the start"), as ratedapt.RosterTag.Arrive clamps it.
func (w Window) Arrive() int {
	return max(w.ArriveSlot, 1)
}

// PresenceWindows resolves the population schedule into per-roster-tag
// presence windows: the K initial tags first (arriving at slot 1), then
// every scheduled arrival in event order. Departures retire the
// longest-present tags first. Arrival-process specs materialize first.
func (s Spec) PresenceWindows() ([]Window, error) {
	if s.Workload.Arrivals != nil {
		// Stream the schedule directly: one O(N) pass with the dwell
		// rule applied per tag, instead of materializing an event
		// schedule and re-deriving the same windows through the
		// quadratic FIFO scan below. Equivalence with the materialized
		// path is pinned by test on every example spec.
		st, err := s.ArrivalStream()
		if err != nil {
			return nil, err
		}
		windows := make([]Window, 0, s.Workload.K+s.Workload.Arrivals.Count)
		for {
			w, ok := st.Next()
			if !ok {
				break
			}
			windows = append(windows, w)
		}
		return windows, nil
	}
	windows := make([]Window, 0, s.TotalTags())
	for i := 0; i < s.Workload.K; i++ {
		windows = append(windows, Window{ArriveSlot: 1})
	}
	for _, e := range s.Workload.Population {
		departed := 0
		for i := range windows {
			if departed == e.Depart {
				break
			}
			if windows[i].DepartSlot == 0 && windows[i].ArriveSlot < e.Slot {
				windows[i].DepartSlot = e.Slot
				departed++
			}
		}
		if departed < e.Depart {
			return nil, fmt.Errorf("scenario: event at slot %d departs %d tags but only %d are present", e.Slot, e.Depart, departed)
		}
		for j := 0; j < e.Arrive; j++ {
			windows = append(windows, Window{ArriveSlot: e.Slot})
		}
	}
	return windows, nil
}

// Validate checks the spec for structural errors: each section's own
// Validate first, then the cross-section invariants no section can see
// alone. It assumes defaults have been applied (Parse does both).
func (s Spec) Validate() error {
	if s.Version != 0 && s.Version != 2 {
		return versionError(s.Version)
	}
	if s.Trials < 1 {
		return fmt.Errorf("scenario: trials must be >= 1, got %d", s.Trials)
	}
	if err := s.Workload.Validate(); err != nil {
		return err
	}
	if err := s.Channel.Validate(); err != nil {
		return err
	}
	if err := s.Decode.Validate(); err != nil {
		return err
	}
	if s.SLO != nil {
		if err := s.SLO.Validate(); err != nil {
			return err
		}
	}

	// Cross-section: channel × workload.
	a := s.Workload.Arrivals
	if s.Channel.Kind == KindGaussMarkov {
		hasBand := a != nil && a.RhoHi != 0
		if len(s.Channel.PerTagRho) == 0 && !hasBand {
			if r := s.Channel.Rho; r <= 0 || r > 1 {
				return fmt.Errorf("scenario: rho[0] = %v outside (0, 1]", r)
			}
		}
	}
	if a != nil {
		if len(s.Channel.PerTagRho) > 0 {
			return fmt.Errorf("scenario: per_tag_rho cannot be combined with workload arrivals — use the arrival spec's rho_lo/rho_hi band")
		}
		if a.RhoHi != 0 && s.Channel.Kind != KindGaussMarkov {
			return fmt.Errorf("scenario: arrivals rho band needs channel kind %q (got %q)", KindGaussMarkov, s.Channel.Kind)
		}
		if a.StartSlot > s.Decode.MaxSlots {
			return fmt.Errorf("scenario: arrivals start_slot %d is beyond max_slots %d — no arrival could ever fire", a.StartSlot, s.Decode.MaxSlots)
		}
	} else if len(s.Channel.PerTagRho) > 0 && len(s.Channel.PerTagRho) != s.TotalTags() {
		return fmt.Errorf("scenario: per_tag_rho has %d entries for %d roster tags", len(s.Channel.PerTagRho), s.TotalTags())
	}

	// Cross-section: decode × channel.
	if s.Decode.Window == WindowPerTag && s.Channel.Kind == KindStatic {
		// On a frozen channel per-tag windows could never resolve to
		// anything; asking for them is certainly a spec mistake.
		return fmt.Errorf("scenario: window \"per_tag\" needs a time-varying channel (kind %q is static)", s.Channel.Kind)
	}

	// Cross-section: workload × decode.
	for _, e := range s.Workload.Population {
		if e.Slot > s.Decode.MaxSlots {
			// A typoed event slot would otherwise silently turn its
			// arrivals into never-joined, 100%-lost tags.
			return fmt.Errorf("scenario: population event at slot %d is beyond max_slots %d — it could never fire", e.Slot, s.Decode.MaxSlots)
		}
	}
	if _, err := s.PresenceWindows(); err != nil {
		return err
	}

	if !s.HasScheme(SchemeBuzz) {
		return fmt.Errorf("scenario: schemes must include %q", SchemeBuzz)
	}
	for _, sch := range s.Schemes {
		switch sch {
		case SchemeBuzz:
		case SchemeTDMA, SchemeCDMA:
			if s.Dynamic() {
				return fmt.Errorf("scenario: scheme %q only runs on static population-free specs (the baselines have no dynamic story)", sch)
			}
		default:
			return fmt.Errorf("scenario: unknown scheme %q", sch)
		}
	}

	// Cross-section: slo × workload. A multi-reader frontier splits the
	// offered load per reader, which only an arrival process can do.
	if s.SLO != nil && len(s.SLO.Readers) > 0 {
		if a == nil {
			return fmt.Errorf("scenario: slo readers needs an arrival-process workload (explicit population schedules cannot split per reader)")
		}
		if max := s.SLO.Readers[len(s.SLO.Readers)-1]; max > a.Count {
			return fmt.Errorf("scenario: slo readers %d exceeds the offered count %d — some readers would receive no tags", max, a.Count)
		}
	}

	// No materialize-and-revalidate pass for arrival specs: the
	// generated schedule is valid by construction — arrival slots are
	// nondecreasing, start at >= 2, truncate at max_slots, departures
	// follow arrivals by a constant positive dwell (FIFO-feasible), and
	// rho-band draws land inside (0, 1] by the band check above. The
	// PresenceWindows call above already walks the full stream once.
	return nil
}
