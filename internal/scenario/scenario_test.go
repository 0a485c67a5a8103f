package scenario

import (
	"strings"
	"testing"

	"repro/internal/bits"
	"repro/internal/channel"
	"repro/internal/prng"
)

func TestParseDefaults(t *testing.T) {
	s, err := Parse([]byte(`{"version": 2, "trials": 2, "seed": 9, "workload": {"k": 4}}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Channel.SNRLodB != 14 || s.Channel.SNRHidB != 30 || s.Channel.AGCNoiseFraction != 0.002 ||
		s.Workload.MessageBits != 32 || s.Decode.CRC != "crc5" || s.Decode.Restarts != 2 ||
		s.Decode.MaxSlots != 160 || s.Channel.Kind != KindStatic || len(s.Schemes) != 1 || s.Schemes[0] != SchemeBuzz {
		t.Fatalf("defaults not applied: %+v", s)
	}
	if s.Version != 2 {
		t.Fatalf("spec parsed to version %d, want 2", s.Version)
	}
	if kind, err := s.CRCKind(); err != nil || kind != bits.CRC5 {
		t.Fatalf("CRCKind = %v, %v", kind, err)
	}
	if s.Dynamic() {
		t.Fatal("static spec reported dynamic")
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"version": 2, "trials": 2, "workload": {"k": 4}, "snr_low_db": 10}`)); err == nil {
		t.Fatal("typo field accepted")
	}
	// Strict section by section too.
	if _, err := Parse([]byte(`{"version": 2, "trials": 2, "workload": {"k": 4, "snr_lo_db": 10}}`)); err == nil {
		t.Fatal("typo field in a section accepted")
	}
}

func TestParseRejectsUnknownVersion(t *testing.T) {
	_, err := Parse([]byte(`{"version": 3, "trials": 2, "workload": {"k": 4}}`))
	if err == nil || !strings.Contains(err.Error(), "unsupported spec version 3") {
		t.Fatalf("version 3 err = %v", err)
	}
}

// TestParseRejectsFlatLayout pins the removal of the flat version-1
// layout: a document that does not say "version": 2 is rejected with
// one error that names the removed layout, whether it is written flat,
// says "version": 1, or is sectioned but leaves the version out.
func TestParseRejectsFlatLayout(t *testing.T) {
	for _, raw := range []string{
		`{"k": 4, "trials": 2, "seed": 9}`,
		`{"version": 1, "k": 4, "trials": 2, "seed": 9}`,
		`{"trials": 2, "seed": 9, "workload": {"k": 4}}`,
	} {
		_, err := Parse([]byte(raw))
		if err == nil || !strings.Contains(err.Error(), "flat version-1 layout was removed") {
			t.Errorf("Parse(%s): err = %v, want the removed flat layout named", raw, err)
		}
	}
}

func TestParseNoAGC(t *testing.T) {
	s, err := Parse([]byte(`{"version": 2, "trials": 1, "workload": {"k": 2}, "channel": {"no_agc": true}}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Channel.AGCNoiseFraction != 0 {
		t.Fatalf("no_agc left AGCNoiseFraction = %v", s.Channel.AGCNoiseFraction)
	}
}

func TestValidateErrors(t *testing.T) {
	base := func() Spec {
		return Spec{Trials: 2, Workload: WorkloadSpec{K: 4}}.WithDefaults()
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"zero k", func(s *Spec) { s.Workload.K = 0 }, "k must be"},
		{"inverted band", func(s *Spec) { s.Channel.SNRLodB, s.Channel.SNRHidB = 20, 10 }, "inverted"},
		{"bad crc", func(s *Spec) { s.Decode.CRC = "crc32" }, "unknown crc"},
		{"bad kind", func(s *Spec) { s.Channel.Kind = "rician" }, "unknown channel kind"},
		{"block without len", func(s *Spec) { s.Channel.Kind = KindBlockFading }, "block_len"},
		{"rho out of range", func(s *Spec) {
			s.Channel.Kind, s.Channel.Rho = KindGaussMarkov, 1.5
		}, "outside (0, 1]"},
		{"per-tag rho length", func(s *Spec) {
			s.Channel.Kind, s.Channel.PerTagRho = KindGaussMarkov, []float64{0.9}
		}, "per_tag_rho"},
		{"event too early", func(s *Spec) { s.Workload.Population = []PopulationEvent{{Slot: 1, Arrive: 1}} }, "start at slot 2"},
		{"event past the cap", func(s *Spec) { s.Workload.Population = []PopulationEvent{{Slot: 9999, Arrive: 1}} }, "beyond max_slots"},
		{"events unsorted", func(s *Spec) {
			s.Workload.Population = []PopulationEvent{{Slot: 5, Arrive: 1}, {Slot: 5, Arrive: 1}}
		}, "strictly increasing"},
		{"empty event", func(s *Spec) { s.Workload.Population = []PopulationEvent{{Slot: 3}} }, "positive number"},
		{"over-depart", func(s *Spec) { s.Workload.Population = []PopulationEvent{{Slot: 2, Depart: 9}} }, "only"},
		{"no buzz", func(s *Spec) { s.Schemes = []string{SchemeTDMA} }, "must include"},
		{"bad scheme", func(s *Spec) { s.Schemes = []string{SchemeBuzz, "aloha"} }, "unknown scheme"},
		{"tdma on dynamic", func(s *Spec) {
			s.Workload.Population = []PopulationEvent{{Slot: 3, Arrive: 1}}
			s.Schemes = []string{SchemeBuzz, SchemeTDMA}
		}, "static population-free"},
		{"unknown window", func(s *Spec) { s.Decode.Window = "sliding" }, "unknown window"},
		{"auto with decode_window", func(s *Spec) { s.Decode.Window = WindowAuto; s.Decode.DecodeWindow = 8 }, "derives the length"},
		{"none with decode_window", func(s *Spec) { s.Decode.Window = WindowNone; s.Decode.DecodeWindow = 8 }, "use \"fixed\""},
		{"fixed without decode_window", func(s *Spec) { s.Decode.Window = WindowFixed }, "decode_window >= 1"},
		{"negative decode_window", func(s *Spec) { s.Decode.Window = WindowFixed; s.Decode.DecodeWindow = -2 }, "decode_window >= 1"},
		{"window past the cap", func(s *Spec) { s.Decode.Window = WindowFixed; s.Decode.DecodeWindow = s.Decode.MaxSlots }, "never slide"},
	}
	for _, tc := range cases {
		s := base()
		tc.mut(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base spec invalid: %v", err)
	}
}

// TestParseWindowFields pins the window-field defaults: a bare
// decode_window implies "fixed", "auto" stands alone, and the zero
// value stays the classic decoder.
func TestParseWindowFields(t *testing.T) {
	s, err := Parse([]byte(`{"version": 2, "trials": 2, "workload": {"k": 4}, "decode": {"decode_window": 12}}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Decode.Window != WindowFixed || s.Decode.DecodeWindow != 12 {
		t.Fatalf("bare decode_window parsed to window=%q decode_window=%d", s.Decode.Window, s.Decode.DecodeWindow)
	}
	s, err = Parse([]byte(`{"version": 2, "trials": 2, "workload": {"k": 4},
		"channel": {"kind": "gauss-markov", "rho": 0.9}, "decode": {"window": "auto"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Decode.Window != WindowAuto || s.Decode.DecodeWindow != 0 {
		t.Fatalf("auto parsed to window=%q decode_window=%d", s.Decode.Window, s.Decode.DecodeWindow)
	}
	s, err = Parse([]byte(`{"version": 2, "trials": 2, "workload": {"k": 4}}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Decode.Window != "" || s.Decode.DecodeWindow != 0 {
		t.Fatalf("zero value parsed to window=%q decode_window=%d", s.Decode.Window, s.Decode.DecodeWindow)
	}
}

// TestPresenceWindows pins the FIFO departure semantics: the
// longest-present tags leave first, arrivals stack in event order.
func TestPresenceWindows(t *testing.T) {
	s := Spec{
		Trials: 1,
		Workload: WorkloadSpec{
			K: 3,
			Population: []PopulationEvent{
				{Slot: 4, Arrive: 2},
				{Slot: 7, Depart: 2},
				{Slot: 9, Arrive: 1, Depart: 2},
			},
		},
	}.WithDefaults()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.TotalTags() != 6 {
		t.Fatalf("TotalTags = %d, want 6", s.TotalTags())
	}
	w, err := s.PresenceWindows()
	if err != nil {
		t.Fatal(err)
	}
	want := []Window{
		{1, 7}, {1, 7}, // FIFO: the two oldest leave at 7
		{1, 9}, // next oldest leaves at 9...
		{4, 9}, // ...along with the older slot-4 arrival
		{4, 0},
		{9, 0},
	}
	for i := range want {
		if w[i] != want[i] {
			t.Fatalf("window %d = %+v, want %+v (all: %+v)", i, w[i], want[i], w)
		}
	}
}

// TestNewProcess checks the spec-to-process mapping, including the
// per-tag rho plumbing.
func TestNewProcess(t *testing.T) {
	init := channel.NewFromSNRBand(3, 14, 30, prng.NewSource(1))
	s := Spec{Trials: 1, Workload: WorkloadSpec{K: 3}}.WithDefaults()
	if _, ok := s.NewProcessRoster(init, 5, s.Channel.PerTagRho).(*channel.StaticProcess); !ok {
		t.Error("static spec did not build a StaticProcess")
	}
	s.Channel.Kind, s.Channel.BlockLen = KindBlockFading, 4
	if _, ok := s.NewProcessRoster(init, 5, s.Channel.PerTagRho).(*channel.BlockFading); !ok {
		t.Error("block spec did not build a BlockFading")
	}
	s.Channel.Kind, s.Channel.BlockLen = KindGaussMarkov, 0
	s.Channel.PerTagRho = []float64{0.9, 1, 0.99}
	gm, ok := s.NewProcessRoster(init, 5, s.Channel.PerTagRho).(*channel.GaussMarkov)
	if !ok {
		t.Fatal("gauss-markov spec did not build a GaussMarkov")
	}
	frozen := gm.ModelAt(1).Taps[1]
	if gm.ModelAt(50).Taps[1] != frozen {
		t.Error("per-tag rho=1 tag moved")
	}
}

// TestParsePerTagWindow pins the per-tag window spec surface: a valid
// per_tag spec parses, and every inconsistent combination fails loudly.
func TestParsePerTagWindow(t *testing.T) {
	s, err := Parse([]byte(`{"version": 2, "trials": 2, "workload": {"k": 4},
		"channel": {"kind": "gauss-markov", "per_tag_rho": [1, 1, 0.9, 0.9]}, "decode": {"window": "per_tag"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Decode.Window != WindowPerTag {
		t.Fatalf("parsed to window=%q", s.Decode.Window)
	}

	bad := []string{
		// per_tag needs a time-varying channel.
		`{"version": 2, "trials": 2, "workload": {"k": 4}, "decode": {"window": "per_tag"}}`,
		// per_tag derives its windows; an explicit length conflicts.
		`{"version": 2, "trials": 2, "workload": {"k": 4},
			"channel": {"kind": "gauss-markov", "rho": 0.9}, "decode": {"window": "per_tag", "decode_window": 8}}`,
	}
	for _, spec := range bad {
		if _, err := Parse([]byte(spec)); err == nil {
			t.Errorf("spec %s validated, want an error", spec)
		}
	}
}

// TestParseRejectsWindowSoft pins the removed soft per-tag mode: a spec
// that sets window_soft fails Parse with an error that says the key was
// removed, whatever window it pairs it with.
func TestParseRejectsWindowSoft(t *testing.T) {
	for _, raw := range []string{
		`{"version": 2, "trials": 2, "workload": {"k": 4},
			"channel": {"kind": "block-fading", "block_len": 16}, "decode": {"window": "per_tag", "window_soft": true}}`,
		`{"version": 2, "trials": 2, "workload": {"k": 4},
			"channel": {"kind": "gauss-markov", "rho": 0.9}, "decode": {"window": "auto", "window_soft": true}}`,
		`{"version": 2, "trials": 2, "workload": {"k": 4}, "decode": {"window_soft": true}}`,
		`{"version": 2, "trials": 2, "workload": {"k": 4},
			"channel": {"kind": "gauss-markov", "per_tag_rho": [1, 1, 0.9, 0.9]},
			"decode": {"window": "per_tag", "window_soft": true}}`,
	} {
		if _, err := Parse([]byte(raw)); err == nil {
			t.Errorf("Parse accepted window_soft: %s", raw)
		} else if !strings.Contains(err.Error(), "window_soft was removed") {
			t.Errorf("Parse(%s): error %q does not say window_soft was removed", raw, err)
		}
	}
}

func TestParseRejectsTrailingContent(t *testing.T) {
	// One workload file is one spec object; anything after it — a
	// second object from a botched merge, a stray bracket — must fail
	// loudly instead of being silently dropped.
	for _, raw := range []string{
		`{"version": 2, "trials": 2, "seed": 1, "workload": {"k": 4}} {"version": 2, "trials": 1, "seed": 2, "workload": {"k": 8}}`,
		`{"version": 2, "trials": 2, "seed": 1, "workload": {"k": 4}}]`,
		`{"version": 2, "trials": 2, "seed": 1, "workload": {"k": 4}} 7`,
		`{"version": 2, "trials": 2, "seed": 1, "workload": {"k": 4}} garbage`,
		`{"version": 2, "trials": 2, "workload": {"k": 4}} {"version": 2}`,
	} {
		if _, err := Parse([]byte(raw)); err == nil {
			t.Errorf("Parse accepted trailing content: %s", raw)
		} else if !strings.Contains(err.Error(), "trailing content") {
			t.Errorf("Parse(%s): error %q does not name the trailing content", raw, err)
		}
	}
	// Trailing whitespace stays legal.
	if _, err := Parse([]byte("{\"version\": 2, \"trials\": 2, \"seed\": 1, \"workload\": {\"k\": 4}}\n\t \n")); err != nil {
		t.Errorf("Parse rejected trailing whitespace: %v", err)
	}
}
