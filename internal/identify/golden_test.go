package identify

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/prng"
	"repro/internal/scratch"
)

// goldenCase is one identification session of the digest sweep.
type goldenCase struct {
	seed       uint64
	k          int
	loDB, hiDB float64
}

// goldenCases enumerates the digest sweep: every K in 4..16 against four
// SNR bands (low, headline, high, very high), ten seeds each — 520
// sessions.
func goldenCases() []goldenCase {
	bands := [][2]float64{{5, 15}, {14, 30}, {20, 35}, {30, 45}}
	var cases []goldenCase
	for seed := uint64(0); seed < 10; seed++ {
		for k := 4; k <= 16; k++ {
			for _, b := range bands {
				cases = append(cases, goldenCase{seed: seed, k: k, loDB: b[0], hiDB: b[1]})
			}
		}
	}
	return cases
}

// drawSession runs one identification session under cfg with k tags
// whose per-tag SNRs are drawn in [loDB, hiDB] over unit noise, with the
// receiver's dynamic-range noise at agc of the active taps' power. The
// tags, taps and session salt depend on (seed, k, loDB) only, so
// sessions that differ in agc or cfg alone see the same tags.
func drawSession(seed uint64, k int, loDB, hiDB, agc float64, cfg Config) ([]uint64, *channel.Model, *Result, error) {
	src := prng.NewSource(prng.Mix3(seed, uint64(k), math.Float64bits(loDB)))
	ids := activeSet(src, k)
	ch := channel.NewFromSNRBand(k, loDB, hiDB, src)
	ch.AGCNoiseFraction = agc
	cfg.Salt = src.Uint64()
	res, err := Run(cfg, ids, ch, src.Fork(1))
	return ids, ch, res, err
}

// sessionOutputs runs one golden-sweep session and returns the outputs
// the digest hashes, in its order.
func sessionOutputs(t testing.TB, gc goldenCase, cfg Config) []uint64 {
	_, _, res, err := drawSession(gc.seed, gc.k, gc.loDB, gc.hiDB, 0, cfg)
	if err != nil {
		t.Errorf("seed %d k %d: %v", gc.seed, gc.k, err)
		return nil
	}
	out := []uint64{uint64(res.TotalSlots), uint64(res.KEstimate), uint64(res.Steps), uint64(len(res.Identified))}
	for _, id := range res.Identified {
		out = append(out, id.TempID, math.Float64bits(real(id.Tap)), math.Float64bits(imag(id.Tap)))
	}
	return out
}

// identifyDigest runs every golden case through Run, drawing buffers
// from sc (nil: the heap), and hashes the outputs: TotalSlots,
// KEstimate, Steps and each identified tag's TempID with the exact bits
// of its tap.
func identifyDigest(t testing.TB, sc *scratch.Scratch) string {
	h := sha256.New()
	var buf [8]byte
	for _, gc := range goldenCases() {
		for _, v := range sessionOutputs(t, gc, Config{Scratch: sc}) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenIdentifyDigest pins the identification outputs of 520
// sessions bit for bit. The stage-A likelihood scan and the stage-C
// pursuit are performance-sensitive kernels; any rewrite of them must
// leave this digest unchanged, on the heap and on one reused arena (the
// way the simulator calls Run). A change that legitimately alters the
// numerics recaptures it deliberately and says so. The pursuit's stop at
// its reporting floor did, with TestStageCQuality as its evidence.
func TestGoldenIdentifyDigest(t *testing.T) {
	const want = "add41e45fa0afc7123ee001e961dc931fdb5a83ad7e1c1c126bf192333cf4e41"
	for _, sc := range []*scratch.Scratch{nil, scratch.New()} {
		if got := identifyDigest(t, sc); got != want {
			t.Fatalf("identify digest drifted (arena %v):\n got %s\nwant %s", sc != nil, got, want)
		}
	}
}
