package crc

import (
	"testing"

	"repro/internal/prng"
)

func randomBits(src *prng.Source, n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = src.Bool()
	}
	return b
}

func TestAppendCheck5RoundTrip(t *testing.T) {
	src := prng.NewSource(1)
	for trial := 0; trial < 500; trial++ {
		n := src.IntN(64) + 1
		msg := randomBits(src, n)
		frame := Append5(msg)
		if len(frame) != n+Width5 {
			t.Fatalf("frame length %d, want %d", len(frame), n+Width5)
		}
		if !Check5(frame) {
			t.Fatalf("trial %d: valid frame failed CRC-5", trial)
		}
	}
}

func TestCheck5DetectsSingleBitErrors(t *testing.T) {
	src := prng.NewSource(2)
	msg := randomBits(src, 32)
	frame := Append5(msg)
	for i := range frame {
		frame[i] = !frame[i]
		if Check5(frame) {
			t.Errorf("single-bit error at %d undetected by CRC-5", i)
		}
		frame[i] = !frame[i]
	}
}

func TestCheck5BurstErrors(t *testing.T) {
	// CRC-5 detects all burst errors of length <= 5.
	src := prng.NewSource(3)
	msg := randomBits(src, 32)
	frame := Append5(msg)
	for start := 0; start+5 <= len(frame); start++ {
		for blen := 2; blen <= 5; blen++ {
			mutated := make([]bool, len(frame))
			copy(mutated, frame)
			// A burst flips the first and last bit of the window and a
			// pattern in between; flipping all is one such burst.
			for i := start; i < start+blen; i++ {
				mutated[i] = !mutated[i]
			}
			if Check5(mutated) {
				t.Errorf("burst (start=%d len=%d) undetected", start, blen)
			}
		}
	}
}

func TestCheck5RejectsShortFrames(t *testing.T) {
	if Check5(nil) || Check5(make([]bool, 4)) {
		t.Fatal("short frames must not verify")
	}
}

func TestAppendCheck16RoundTrip(t *testing.T) {
	src := prng.NewSource(4)
	for trial := 0; trial < 300; trial++ {
		n := src.IntN(200) + 1
		msg := randomBits(src, n)
		frame := Append16(msg)
		if !Check16(frame) {
			t.Fatalf("trial %d: valid frame failed CRC-16", trial)
		}
	}
}

func TestCheck16DetectsSingleBitErrors(t *testing.T) {
	src := prng.NewSource(5)
	msg := randomBits(src, 96)
	frame := Append16(msg)
	for i := range frame {
		frame[i] = !frame[i]
		if Check16(frame) {
			t.Errorf("single-bit error at %d undetected by CRC-16", i)
		}
		frame[i] = !frame[i]
	}
}

func TestCheck16DetectsDoubleBitErrors(t *testing.T) {
	src := prng.NewSource(6)
	msg := randomBits(src, 48)
	frame := Append16(msg)
	for trial := 0; trial < 2000; trial++ {
		i := src.IntN(len(frame))
		j := src.IntN(len(frame))
		if i == j {
			continue
		}
		frame[i], frame[j] = !frame[i], !frame[j]
		if Check16(frame) {
			t.Fatalf("double-bit error (%d,%d) undetected", i, j)
		}
		frame[i], frame[j] = !frame[i], !frame[j]
	}
}

func TestChecksum16KnownVector(t *testing.T) {
	// EPC Gen-2 uses the non-reflected ISO/IEC 13239 CRC-16 with preset
	// 0xFFFF and complemented output — the CRC-16/GENIBUS variant, whose
	// published check value over "123456789" is 0xD64E. This pins the
	// implementation against drift.
	var msg []bool
	for _, by := range []byte("123456789") {
		for i := 7; i >= 0; i-- {
			msg = append(msg, (by>>uint(i))&1 == 1)
		}
	}
	if got := Checksum16(msg); got != 0xD64E {
		t.Fatalf("Checksum16(123456789) = %#04x, want 0xd64e", got)
	}
}

func TestChecksum5RandomCorruptionFalseAcceptRate(t *testing.T) {
	// A 5-bit CRC accepts random garbage with probability ~2^-5. Verify
	// the false-accept rate is in a sane band, since Buzz's decoder
	// terminates on CRC passes and a broken CRC would end transfers early.
	src := prng.NewSource(7)
	accepts := 0
	const trials = 20000
	for trial := 0; trial < trials; trial++ {
		frame := randomBits(src, 37)
		if Check5(frame) {
			accepts++
		}
	}
	rate := float64(accepts) / trials
	if rate < 0.02 || rate > 0.045 {
		t.Fatalf("false-accept rate %.4f outside [0.02, 0.045] (~1/32 expected)", rate)
	}
}

func TestChecksum5DiffersByMessage(t *testing.T) {
	// All 2^8 8-bit messages: CRC-5 is not constant and spreads values.
	seen := map[uint8]int{}
	for m := 0; m < 256; m++ {
		bits := make([]bool, 8)
		for i := 0; i < 8; i++ {
			bits[i] = (m>>uint(7-i))&1 == 1
		}
		seen[Checksum5(bits)]++
	}
	if len(seen) != 32 {
		t.Fatalf("CRC-5 over 8-bit messages hit %d/32 values", len(seen))
	}
}

func BenchmarkChecksum5(b *testing.B) {
	src := prng.NewSource(8)
	msg := randomBits(src, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Checksum5(msg)
	}
}

func BenchmarkChecksum16(b *testing.B) {
	src := prng.NewSource(9)
	msg := randomBits(src, 96)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Checksum16(msg)
	}
}
