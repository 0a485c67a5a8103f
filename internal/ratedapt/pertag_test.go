package ratedapt

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/bits"
	"repro/internal/channel"
	"repro/internal/prng"
)

// TestWindowPolicyResolveTagsPerTag pins the per-tag resolution table:
// parked tags never window, short coherence floors at MinAutoWindow,
// windows the transfer cannot outgrow clamp to none, and an all-parked
// roster resolves to no per-tag windows at all.
func TestWindowPolicyResolveTagsPerTag(t *testing.T) {
	init := channel.NewExact(make([]complex128, 4), 1)
	proc := channel.NewGaussMarkov(init, []float64{1, 0.9, 0.97, 0.999}, 7)
	const maxSlots = 200
	got := ResolveTagWindows(proc, maxSlots, 4)
	want := []int{
		0,             // parked: coherent forever
		MinAutoWindow, // rho 0.9: 6 slots floors at 8
		22,            // rho 0.97
		0,             // rho 0.999: 692 slots >= maxSlots clamps to none
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resolved %v, want %v", got, want)
	}

	parked := channel.NewGaussMarkov(channel.NewExact(make([]complex128, 2), 1), []float64{1, 1}, 7)
	if wins := ResolveTagWindows(parked, maxSlots, 2); wins != nil {
		t.Fatalf("all-parked roster resolved %v, want nil (no window)", wins)
	}
}

// perTagTestRoster builds a half-parked, half-moving Gauss–Markov
// workload for the TransferDynamic per-tag tests.
func perTagTestRoster(k int, seed uint64) (Config, []RosterTag, *channel.GaussMarkov) {
	cfg, roster, ch := dynamicTestRoster(k, seed)
	rho := make([]float64, k)
	for i := range rho {
		if i < k/2 {
			rho[i] = 1
		} else {
			rho[i] = 0.9
		}
	}
	proc := channel.NewGaussMarkov(ch, rho, seed)
	cfg.Window = PerTagWindow(false)
	cfg.MaxSlots = 300
	return cfg, roster, proc
}

// TestTransferDynamicPerTagWindow drives the hard per-tag window end
// to end: the resolved per-tag windows and retirement counts must
// split exactly along the parked/mover line, and — the property the
// mode exists for — every verified payload must be correct.
func TestTransferDynamicPerTagWindow(t *testing.T) {
	const k = 8
	cfg, roster, proc := perTagTestRoster(k, 0xF3A7)
	res, err := TransferDynamic(cfg, roster, proc, proc, prng.NewSource(3), prng.NewSource(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.WindowSlots != 0 {
		t.Fatalf("global WindowSlots %d under a per-tag policy, want 0", res.WindowSlots)
	}
	if len(res.WindowSlotsTag) != k || len(res.RowsRetiredTag) != k {
		t.Fatalf("per-tag result slices %d/%d entries, want %d", len(res.WindowSlotsTag), len(res.RowsRetiredTag), k)
	}
	total := 0
	for i := 0; i < k; i++ {
		parked := i < k/2
		if parked {
			if res.WindowSlotsTag[i] != 0 || res.RowsRetiredTag[i] != 0 {
				t.Fatalf("parked tag %d: window %d, retired %d — want 0/0", i, res.WindowSlotsTag[i], res.RowsRetiredTag[i])
			}
			continue
		}
		if res.WindowSlotsTag[i] != MinAutoWindow {
			t.Fatalf("mover %d window %d slots, want %d", i, res.WindowSlotsTag[i], MinAutoWindow)
		}
		if res.SlotsUsed > 3*MinAutoWindow && res.RowsRetiredTag[i] == 0 {
			t.Fatalf("mover %d retired nothing over %d slots", i, res.SlotsUsed)
		}
		total += res.RowsRetiredTag[i]
	}
	if res.RowsRetired != total {
		t.Fatalf("RowsRetired %d != per-tag sum %d", res.RowsRetired, total)
	}
	for i, ok := range res.Verified {
		if ok && !bits.PayloadOf(res.Frames[i], cfg.CRC).Equal(roster[i].Message) {
			t.Errorf("tag %d delivered a wrong payload under the per-tag window", i)
		}
	}
}

// TestTransferDynamicPerTagStaticFallsBack pins the degenerate end: a
// per-tag policy over a static process resolves to no windows and the
// transfer is byte-identical to the unwindowed decode, reported
// per-tag fields included (nil).
func TestTransferDynamicPerTagStaticFallsBack(t *testing.T) {
	const k = 6
	cfg, roster, ch := dynamicTestRoster(k, 0x57A7)
	proc := channel.NewStatic(ch)
	a, err := TransferDynamic(cfg, roster, proc, proc, prng.NewSource(5), prng.NewSource(6))
	if err != nil {
		t.Fatal(err)
	}
	pcfg := cfg
	pcfg.Window = PerTagWindow(false)
	b, err := TransferDynamic(pcfg, roster, proc, proc, prng.NewSource(5), prng.NewSource(6))
	if err != nil {
		t.Fatal(err)
	}
	if b.WindowSlotsTag != nil || b.RowsRetiredTag != nil {
		t.Fatalf("static per-tag transfer reported windows %v retired %v, want nil", b.WindowSlotsTag, b.RowsRetiredTag)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("per-tag policy on a static process diverged from the unwindowed decode:\nplain:   %+v\nper-tag: %+v", a, b)
	}
}

// TestParallelismAboveOneRejected pins the removed position fan-out's
// surviving input: OpenStream opens at StreamConfig.Parallelism 0 and 1
// and refuses any other value.
func TestParallelismAboveOneRejected(t *testing.T) {
	for _, par := range []int{-1, 0, 1, 2, 4} {
		st, err := OpenStream(StreamConfig{
			MessageBits: 16,
			MaxSlots:    64,
			Seeds:       []uint64{1, 2},
			Taps:        []complex128{1, 1i},
			DecodeSrc:   prng.NewSource(9),
			Parallelism: par,
		})
		if err == nil {
			st.Close()
		}
		if open := par == 0 || par == 1; (err == nil) != open {
			t.Errorf("Parallelism %d: error %v, want open %v", par, err, open)
		}
	}
}

// TestWindowSoftRejected pins the removed soft per-tag mode's two
// surviving inputs: OpenStream refuses a config with WindowSoft set
// (the same config without it opens), and PerTagWindow(true) panics.
func TestWindowSoftRejected(t *testing.T) {
	cfg := StreamConfig{
		MessageBits: 16,
		MaxSlots:    64,
		WindowTag:   []int{8, 0},
		Seeds:       []uint64{1, 2},
		Taps:        []complex128{1, 1i},
		DecodeSrc:   prng.NewSource(9),
		WindowSoft:  true,
	}
	if st, err := OpenStream(cfg); err == nil {
		st.Close()
		t.Fatal("OpenStream accepted WindowSoft")
	} else if !strings.Contains(err.Error(), "WindowSoft was removed") {
		t.Fatalf("OpenStream error %q does not say WindowSoft was removed", err)
	}
	cfg.WindowSoft = false
	st, err := OpenStream(cfg)
	if err != nil {
		t.Fatalf("the same config without WindowSoft: %v", err)
	}
	st.Close()

	defer func() {
		if recover() == nil {
			t.Fatal("PerTagWindow(true) did not panic")
		}
	}()
	PerTagWindow(true)
}
