package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSpecParse pins the spec parser's hostile-input contract: Parse
// may reject arbitrary bytes but must never panic, and a spec it
// accepts is a fixed point — re-marshaled to JSON, it parses again to
// a spec with the same content address (Hash). The corpus is seeded
// with every committed example spec.
func FuzzSpecParse(f *testing.F) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no example specs found to seed the corpus")
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"version": 2, "trials": 2, "seed": 9, "workload": {"k": 4}}`))
	f.Add([]byte(`{"version": 3}`))
	f.Add([]byte(`{"version": 2, "workload": {"k": 4}} {"version": 2, "workload": {"k": 5}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		again, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal of a parsed spec: %v", err)
		}
		s2, err := Parse(again)
		if err != nil {
			t.Fatalf("re-marshaled spec does not parse: %v\n%s", err, again)
		}
		if h, h2 := s.Hash(), s2.Hash(); h != h2 {
			t.Fatalf("re-marshaled spec hashes to %s, want %s\n%s", h2, h, again)
		}
	})
}
