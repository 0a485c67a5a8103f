package tdma

import (
	"testing"

	"repro/internal/bits"
	"repro/internal/channel"
	"repro/internal/prng"
)

func makeMessages(src *prng.Source, k, n int) []bits.Vector {
	msgs := make([]bits.Vector, k)
	for i := range msgs {
		msgs[i] = bits.Random(src, n)
	}
	return msgs
}

func TestRunCleanChannelDecodesAll(t *testing.T) {
	src := prng.NewSource(1)
	for _, k := range []int{1, 4, 8, 16} {
		msgs := makeMessages(src, k, 32)
		ch := channel.NewUniform(k, 25, src)
		res, err := Run(Config{CRC: bits.CRC5, UseMiller: true}, msgs, ch, src.Fork(uint64(k)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Lost() != 0 {
			t.Fatalf("k=%d: lost %d messages at 25 dB", k, res.Lost())
		}
		if res.BitErrors != 0 {
			t.Fatalf("k=%d: %d bit errors at 25 dB", k, res.BitErrors)
		}
		for i, f := range res.Frames {
			if !bits.PayloadOf(f, bits.CRC5).Equal(msgs[i]) {
				t.Fatalf("k=%d: tag %d payload wrong", k, i)
			}
		}
	}
}

func TestRunFixedAirTime(t *testing.T) {
	// TDMA's defining property: air time is exactly K × frame length,
	// channel quality notwithstanding.
	src := prng.NewSource(2)
	k := 8
	msgs := makeMessages(src, k, 32)
	frameLen := 32 + bits.CRC5.Width()
	for _, snr := range []float64{5.0, 15.0, 30.0} {
		ch := channel.NewUniform(k, snr, src)
		res, err := Run(Config{CRC: bits.CRC5, UseMiller: true}, msgs, ch, src.Fork(uint64(snr)))
		if err != nil {
			t.Fatal(err)
		}
		if res.BitSlots != k*frameLen {
			t.Fatalf("snr=%v: %d bit slots, want %d", snr, res.BitSlots, k*frameLen)
		}
	}
}

func TestRunLowSNRLosesMessages(t *testing.T) {
	// Fig. 12: as channels worsen TDMA starts failing — it cannot slow
	// down below 1 bit/symbol.
	src := prng.NewSource(3)
	k := 4
	lost := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		msgs := makeMessages(src, k, 32)
		ch := channel.NewUniform(k, -2, src)
		res, err := Run(Config{CRC: bits.CRC5, UseMiller: true}, msgs, ch, src.Fork(uint64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		lost += res.Lost()
	}
	if lost == 0 {
		t.Fatal("TDMA lost nothing at -2 dB; the noise model is not biting")
	}
}

func TestMillerRejectsDCWander(t *testing.T) {
	// The robustness the paper attributes to Miller-4 (§9, Fig. 11):
	// the within-bit subcarrier structure cancels baseline drift that
	// wrecks a plain OOK threshold slicer. At a healthy SNR with strong
	// wander, Miller must decode cleanly while plain OOK drowns.
	src := prng.NewSource(4)
	k := 4
	var millerErrs, plainErrs int
	const trials = 15
	for trial := 0; trial < trials; trial++ {
		msgs := makeMessages(src, k, 32)
		ch := channel.NewUniform(k, 20, src)
		// Random-walk step vs the unit noise floor; taps are ~10×. The
		// walk's component deviation over a 37-bit frame is
		// ~wander·√(37/2) ≈ 4.3, comparable to OOK's |h|/2 = 5 decision
		// threshold — the regime where the slicer reliably drowns. (At
		// smaller wander the walk rarely reaches the threshold and the
		// assertion rides on noise-stream luck, which is how the
		// original 0.3 setting passed.)
		wander := 1.0
		noiseSeed := src.Uint64()
		rm, err := Run(Config{CRC: bits.CRC5, UseMiller: true, DCWander: wander}, msgs, ch, prng.NewSource(noiseSeed))
		if err != nil {
			t.Fatal(err)
		}
		rp, err := Run(Config{CRC: bits.CRC5, UseMiller: false, DCWander: wander}, msgs, ch, prng.NewSource(noiseSeed))
		if err != nil {
			t.Fatal(err)
		}
		millerErrs += rm.BitErrors
		plainErrs += rp.BitErrors
	}
	// plainErrs must be substantial (not a couple of lucky crossings)
	// for the 5× ratio to mean anything.
	if plainErrs < 10*trials {
		t.Fatalf("plain OOK only made %d bit errors under heavy DC wander; the scenario is not biting", plainErrs)
	}
	if millerErrs*5 >= plainErrs {
		t.Fatalf("Miller-4 (%d bit errors) should be ≥5x cleaner than plain OOK (%d) under DC wander",
			millerErrs, plainErrs)
	}
}

func TestMillerSwitchesMoreThanOOK(t *testing.T) {
	// The energy flip side (Fig. 13): Miller-4 toggles the antenna ~8×
	// as often.
	src := prng.NewSource(5)
	msgs := makeMessages(src, 4, 32)
	ch := channel.NewUniform(4, 25, src)
	rm, err := Run(Config{CRC: bits.CRC5, UseMiller: true}, msgs, ch, src.Fork(1))
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Run(Config{CRC: bits.CRC5, UseMiller: false}, msgs, ch, src.Fork(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range rm.SwitchCounts {
		ratio := float64(rm.SwitchCounts[i]) / float64(rp.SwitchCounts[i])
		if ratio < 4 {
			t.Fatalf("tag %d: Miller/OOK switch ratio %.1f, want ≥4", i, ratio)
		}
	}
}

func TestRunMismatchedChannel(t *testing.T) {
	src := prng.NewSource(6)
	ch := channel.NewUniform(2, 20, src)
	if _, err := Run(Config{}, makeMessages(src, 3, 8), ch, src); err == nil {
		t.Fatal("expected tap-count mismatch error")
	}
}

func BenchmarkRunK8Miller(b *testing.B) {
	src := prng.NewSource(8)
	msgs := makeMessages(src, 8, 32)
	ch := channel.NewUniform(8, 20, src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{CRC: bits.CRC5, UseMiller: true}, msgs, ch, prng.NewSource(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
