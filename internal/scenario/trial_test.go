package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"path/filepath"
	"testing"
)

// trialDigestGolden pins every trial-setup draw — messages, the slot-1
// taps of the opening population, participation seeds, session salt,
// decode seed, the channel process at slots 1, 50 and 200, the first
// noise draws, and the resolved coherence windows — for trials 0 and 1
// of every example spec. The value was captured from the wire replay
// client's own setup code before it and sim.Run moved onto Spec.Trial,
// so it holds the shared derivation to the draws both ends made.
const trialDigestGolden = "3c0e351e0c2e3c7ad2cbd26aa324b5ed1ad9c41630d19fdeb6c7457bf5a706a9"

func TestTrialSetupDigest(t *testing.T) {
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example scenarios found: %v", err)
	}
	h := sha256.New()
	for _, path := range files {
		spec, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		rost, err := spec.ResolveRoster()
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 2; trial++ {
			digestTrial(h, spec, rost, spec.Trial(rost, trial, nil))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != trialDigestGolden {
		t.Fatalf("trial setup digest %s, want %s", got, trialDigestGolden)
	}
}

// digestTrial folds one fresh trial into h. It draws from the trial's
// process and noise stream, so tr is spent afterwards.
func digestTrial(h hash.Hash, spec Spec, rost Roster, tr Trial) {
	u64 := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	c128 := func(v complex128) {
		u64(math.Float64bits(real(v)))
		u64(math.Float64bits(imag(v)))
	}
	u64(uint64(len(tr.Messages)))
	for _, m := range tr.Messages {
		for _, b := range m {
			if b {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
	}
	k0 := 0
	for _, w := range rost.Windows {
		if w.Arrive() == 1 {
			k0++
		}
	}
	for _, v := range tr.Process.ModelAt(1).Taps[:k0] {
		c128(v)
	}
	for _, rt := range tr.Tags {
		u64(rt.Seed)
	}
	u64(tr.Salt)
	u64(tr.DecodeSeed)
	win, wins, confirm := spec.Decode.WindowPolicy().Resolve(tr.Process, spec.Decode.MaxSlots, len(rost.Windows))
	for _, slot := range []int{1, 50, 200} {
		for _, v := range tr.Process.ModelAt(slot).Taps {
			c128(v)
		}
	}
	for i := 0; i < 8; i++ {
		u64(tr.Noise.Uint64())
	}
	u64(uint64(win))
	u64(uint64(confirm))
	u64(uint64(len(wins)))
	for _, w := range wins {
		u64(uint64(w))
	}
}
