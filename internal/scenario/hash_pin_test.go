package scenario

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestExampleSpecHashes pins Spec.Hash of every committed example spec.
// The hash covers the defaulted, validated Spec, so a rewrite of a file
// that loads to the same Spec keeps its pin, and any edit that changes
// what a spec runs has to re-pin here on purpose.
func TestExampleSpecHashes(t *testing.T) {
	want := map[string]string{
		"block-fading":   "c6252a1bcccc1a79",
		"conveyor":       "7ffed2afa25ff46f",
		"dock-door":      "1fdff23d009013ba",
		"fast-mobility":  "5a6f6bb05b603dd5",
		"mixed-mobility": "6dc5826915731b98",
		"mobility":       "4704cc2191a1105c",
		"warehouse":      "f8373df18f181c05",
	}
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(want) {
		t.Fatalf("%d example specs, %d pinned", len(paths), len(want))
	}
	for _, p := range paths {
		name := strings.TrimSuffix(filepath.Base(p), ".json")
		s, err := Load(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w, ok := want[name]
		if !ok {
			t.Fatalf("%s: example spec without a hash pin", name)
		}
		if got := s.Hash(); got != w {
			t.Errorf("%s: Hash() = %s, want %s", name, got, w)
		}
	}
}
