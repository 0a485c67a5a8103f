package ratedapt

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/bits"
	"repro/internal/channel"
	"repro/internal/prng"
)

// resultDigest hashes every decision-bearing field of a Result — slot
// count, per-tag frames, verification flags, decode slots and
// participation, the per-slot progress series, ACK cost and window
// accounting — so a golden can pin a whole transfer byte for byte.
func resultDigest(r *Result) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%v|%v|%v|%v|%d|%d|%v|%d|%d|",
		r.SlotsUsed, r.Verified, r.DecodedAtSlot, r.Participation, r.Progress,
		r.AckDownlinkBits, r.AckTurnarounds, r.BitsPerSymbol, r.WindowSlots, r.RowsRetired)
	for _, f := range r.Frames {
		fmt.Fprintf(h, "%v;", []bool(f))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenStaticOnlyFeatures pins the transfer paths that only the
// static-channel entry points expose — ACK silencing, radio death,
// decision-directed channel refinement, a fixed window over a frozen
// channel and the sample-level air — at fixed seeds. The values were captured before these features moved
// onto the streaming slot loop and must stay byte-identical.
func TestGoldenStaticOnlyFeatures(t *testing.T) {
	cases := []struct {
		name string
		run  func() (*Result, error)
		// slots, decodedAt, participation and ack are the readable
		// half of the pin; digest covers every remaining field.
		slots         int
		decodedAt     []int
		participation []int
		ack           int
		digest        string
	}{
		{
			name: "silence-decoded",
			run: func() (*Result, error) {
				src := prng.NewSource(91)
				k := 10
				msgs := makeMessages(src, k, 32)
				ch := channel.NewFromSNRBand(k, 14, 28, src)
				cfg := Config{Seeds: seeds(k), SessionSalt: 9, CRC: bits.CRC5, Restarts: 2,
					MaxSlots: 40 * k, SilenceDecoded: true}
				return Transfer(cfg, msgs, ch, src.Fork(1), src.Fork(2))
			},
			slots:         5,
			decodedAt:     []int{4, 4, 4, 4, 4, 5, 4, 4, 4, 5},
			participation: []int{4, 1, 1, 3, 2, 2, 2, 1, 2, 1},
			ack:           180,
			digest:        "42d5524121f10962",
		},
		{
			name: "dies-at-slot",
			run: func() (*Result, error) {
				src := prng.NewSource(77)
				k := 8
				msgs := makeMessages(src, k, 32)
				ch := channel.NewFromSNRBand(k, 15, 25, src)
				dies := make([]int, k)
				dies[3] = 2
				dies[6] = 5
				cfg := Config{Seeds: seeds(k), SessionSalt: 5, CRC: bits.CRC5, Restarts: 2,
					MaxSlots: 40 * k, DiesAtSlot: dies}
				return Transfer(cfg, msgs, ch, src.Fork(1), src.Fork(2))
			},
			slots:         320,
			decodedAt:     []int{4, 5, 7, 0, 7, 7, 0, 9},
			participation: []int{207, 195, 196, 194, 199, 180, 199, 197},
			ack:           0,
			digest:        "7ee83385ce285e7c",
		},
		{
			name: "refine-channel",
			run: func() (*Result, error) {
				src := prng.NewSource(313)
				k := 8
				msgs := makeMessages(src, k, 32)
				air := channel.NewFromSNRBand(k, 10, 24, src)
				est := make([]complex128, k)
				for i, h := range air.Taps {
					est[i] = h * complex(1+0.15*(src.Float64()-0.5), 0.1*(src.Float64()-0.5))
				}
				decoder := channel.NewExact(est, air.NoisePower)
				cfg := Config{Seeds: seeds(k), SessionSalt: 31, CRC: bits.CRC5, Restarts: 2,
					MaxSlots: 40 * k, RefineChannel: true}
				return TransferEstimated(cfg, msgs, air, decoder, src.Fork(1), src.Fork(2))
			},
			slots:         17,
			decodedAt:     []int{17, 5, 3, 5, 5, 16, 2, 2},
			participation: []int{13, 5, 12, 11, 9, 12, 10, 12},
			ack:           0,
			digest:        "7f0508081ecaf2be",
		},
		{
			name: "silence-dies-refine",
			run: func() (*Result, error) {
				src := prng.NewSource(4711)
				k := 6
				msgs := makeMessages(src, k, 32)
				ch := channel.NewFromSNRBand(k, 12, 26, src)
				dies := make([]int, k)
				dies[1] = 3
				cfg := Config{Seeds: seeds(k), SessionSalt: 47, CRC: bits.CRC5, Restarts: 2,
					MaxSlots: 40 * k, SilenceDecoded: true, DiesAtSlot: dies, RefineChannel: true}
				return Transfer(cfg, msgs, ch, src.Fork(1), src.Fork(2))
			},
			slots:         7,
			decodedAt:     []int{2, 2, 7, 4, 2, 2},
			participation: []int{1, 2, 3, 1, 1, 2},
			ack:           108,
			digest:        "f94f5fe8dc0b6730",
		},
		{
			name: "fixed-window",
			run: func() (*Result, error) {
				src := prng.NewSource(515)
				k := 8
				msgs := makeMessages(src, k, 32)
				ch := channel.NewFromSNRBand(k, 8, 20, src)
				cfg := Config{Seeds: seeds(k), SessionSalt: 51, CRC: bits.CRC5, Restarts: 2,
					MaxSlots: 40 * k, Window: FixedWindow(6)}
				return Transfer(cfg, msgs, ch, src.Fork(1), src.Fork(2))
			},
			slots:         18,
			decodedAt:     []int{18, 13, 14, 10, 11, 8, 10, 13},
			participation: []int{11, 9, 13, 9, 12, 12, 12, 9},
			ack:           0,
			digest:        "d0fafa23f76e53df",
		},
		{
			name: "sampled",
			run: func() (*Result, error) {
				src := prng.NewSource(61)
				k := 5
				msgs := makeMessages(src, k, 32)
				ch := channel.NewFromSNRBand(k, 14, 28, src)
				cfg := SampledConfig{Config: Config{Seeds: seeds(k), SessionSalt: 3, CRC: bits.CRC5,
					Restarts: 2, MaxSlots: 40 * k}}
				return TransferSampled(cfg, msgs, ch, src.Fork(1), src.Fork(2))
			},
			slots:         4,
			decodedAt:     []int{4, 3, 1, 3, 3},
			participation: []int{3, 1, 4, 4, 3},
			ack:           0,
			digest:        "8169452b6ed015e0",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("slots=%d decodedAt=%v participation=%v ack=%d digest=%s",
				res.SlotsUsed, res.DecodedAtSlot, res.Participation, res.AckDownlinkBits, resultDigest(res))
			want := fmt.Sprintf("slots=%d decodedAt=%v participation=%v ack=%d digest=%s",
				tc.slots, tc.decodedAt, tc.participation, tc.ack, tc.digest)
			if got != want {
				t.Fatalf("golden drift:\n got %s\nwant %s", got, want)
			}
		})
	}
}
