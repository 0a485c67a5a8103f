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

// identifyDigest runs every golden case through Run, drawing buffers
// from sc (nil: the heap), and hashes the outputs: TotalSlots,
// KEstimate, Steps and each identified tag's TempID with the exact bits
// of its tap.
func identifyDigest(t testing.TB, sc *scratch.Scratch) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, gc := range goldenCases() {
		src := prng.NewSource(prng.Mix3(gc.seed, uint64(gc.k), math.Float64bits(gc.loDB)))
		ids := activeSet(src, gc.k)
		ch := channel.NewFromSNRBand(gc.k, gc.loDB, gc.hiDB, src)
		res, err := Run(Config{Salt: src.Uint64(), Scratch: sc}, ids, ch, src.Fork(1))
		if err != nil {
			t.Fatalf("seed %d k %d band [%g, %g]: %v", gc.seed, gc.k, gc.loDB, gc.hiDB, err)
		}
		put(uint64(res.TotalSlots))
		put(uint64(res.KEstimate))
		put(uint64(res.Steps))
		put(uint64(len(res.Identified)))
		for _, id := range res.Identified {
			put(id.TempID)
			put(math.Float64bits(real(id.Tap)))
			put(math.Float64bits(imag(id.Tap)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenIdentifyDigest pins the identification outputs of 520
// sessions bit for bit. The stage-A likelihood scan and the stage-C
// pursuit are performance-sensitive kernels; any rewrite of them must
// leave this digest unchanged, on the heap and on one reused arena (the
// way the simulator calls Run). A change that legitimately alters the
// numerics recaptures it deliberately and says so.
func TestGoldenIdentifyDigest(t *testing.T) {
	const want = "d442ec0e4858e741e940a215b24762791c1dea95a42ee32bd16990d55b250528"
	for _, sc := range []*scratch.Scratch{nil, scratch.New()} {
		if got := identifyDigest(t, sc); got != want {
			t.Fatalf("identify digest drifted (arena %v):\n got %s\nwant %s", sc != nil, got, want)
		}
	}
}
