package ratedapt

import (
	"math"
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

func seeds(k int) []uint64 {
	s := make([]uint64, k)
	for i := range s {
		s[i] = uint64(1000 + i*17)
	}
	return s
}

func TestTransferAllDecodeGoodChannel(t *testing.T) {
	src := prng.NewSource(1)
	for trial := 0; trial < 10; trial++ {
		k := 4 + src.IntN(8)
		msgs := makeMessages(src, k, 32)
		ch := channel.NewFromSNRBand(k, 15, 25, src)
		cfg := Config{Seeds: seeds(k), SessionSalt: uint64(trial), CRC: bits.CRC5, Restarts: 2}
		res, err := Transfer(cfg, msgs, ch, src.Fork(uint64(trial)), src.Fork(uint64(100+trial)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Lost() != 0 {
			t.Fatalf("trial %d (k=%d): %d messages lost on a good channel", trial, k, res.Lost())
		}
		for i, p := range res.Payloads(bits.CRC5) {
			if !p.Equal(msgs[i]) {
				t.Fatalf("trial %d: tag %d decoded wrong payload", trial, i)
			}
		}
	}
}

func TestTransferRateAboveOneOnGoodChannel(t *testing.T) {
	// §6d: with good channels L < K, so the aggregate rate exceeds
	// 1 bit/symbol — the gain TDMA can never achieve.
	src := prng.NewSource(2)
	var rates []float64
	for trial := 0; trial < 8; trial++ {
		k := 8
		msgs := makeMessages(src, k, 32)
		ch := channel.NewFromSNRBand(k, 20, 28, src)
		cfg := Config{Seeds: seeds(k), SessionSalt: uint64(trial), CRC: bits.CRC5, Restarts: 2}
		res, err := Transfer(cfg, msgs, ch, src.Fork(uint64(trial)), src.Fork(uint64(50+trial)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Lost() == 0 {
			rates = append(rates, res.BitsPerSymbol)
		}
	}
	if len(rates) == 0 {
		t.Fatal("no successful transfers")
	}
	var mean float64
	for _, r := range rates {
		mean += r
	}
	mean /= float64(len(rates))
	if mean <= 1.0 {
		t.Fatalf("mean rate %f bits/symbol, want > 1 on good channels", mean)
	}
}

func TestTransferAdaptsBelowOneOnBadChannel(t *testing.T) {
	// Fig. 12's key behaviour: in harsh conditions Buzz trades time for
	// reliability, sliding below 1 bit/symbol but still delivering.
	src := prng.NewSource(3)
	k := 4
	msgs := makeMessages(src, k, 32)
	ch := channel.NewFromSNRBand(k, 4, 9, src)
	cfg := Config{Seeds: seeds(k), SessionSalt: 9, CRC: bits.CRC5, Restarts: 3, MaxSlots: 400}
	res, err := Transfer(cfg, msgs, ch, src.Fork(1), src.Fork(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost() != 0 {
		t.Fatalf("lost %d messages; the rateless code should eventually deliver", res.Lost())
	}
	if res.BitsPerSymbol >= 1.0 {
		t.Logf("note: rate %f ≥ 1 on a bad channel (acceptable but unexpected)", res.BitsPerSymbol)
	}
	if res.SlotsUsed <= k/2 {
		t.Fatalf("suspiciously fast decode (%d slots) at 4-9 dB", res.SlotsUsed)
	}
}

func TestTransferProgressMonotone(t *testing.T) {
	src := prng.NewSource(4)
	k := 10
	msgs := makeMessages(src, k, 32)
	ch := channel.NewFromSNRBand(k, 10, 22, src)
	cfg := Config{Seeds: seeds(k), SessionSalt: 3, CRC: bits.CRC5, Restarts: 2}
	res, err := Transfer(cfg, msgs, ch, src.Fork(1), src.Fork(2))
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for i, p := range res.Progress {
		if p.Slot != i+1 {
			t.Fatalf("slot numbering broken at %d", i)
		}
		if p.TotalDecoded < prev {
			t.Fatal("TotalDecoded decreased")
		}
		if p.TotalDecoded != prev+p.NewlyDecoded {
			t.Fatal("NewlyDecoded inconsistent with TotalDecoded")
		}
		wantRate := float64(p.TotalDecoded) / float64(p.Slot)
		if math.Abs(p.BitsPerSymbol-wantRate) > 1e-12 {
			t.Fatal("per-slot rate wrong")
		}
		prev = p.TotalDecoded
	}
}

func TestTransferDecodedAtSlotConsistent(t *testing.T) {
	src := prng.NewSource(5)
	k := 6
	msgs := makeMessages(src, k, 32)
	ch := channel.NewFromSNRBand(k, 12, 24, src)
	cfg := Config{Seeds: seeds(k), SessionSalt: 4, CRC: bits.CRC5, Restarts: 2}
	res, err := Transfer(cfg, msgs, ch, src.Fork(1), src.Fork(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if res.Verified[i] && (res.DecodedAtSlot[i] < 1 || res.DecodedAtSlot[i] > res.SlotsUsed) {
			t.Fatalf("tag %d verified at impossible slot %d", i, res.DecodedAtSlot[i])
		}
		if !res.Verified[i] && res.DecodedAtSlot[i] != 0 {
			t.Fatalf("unverified tag %d has DecodedAtSlot %d", i, res.DecodedAtSlot[i])
		}
	}
}

func TestTransferStopsAtMaxSlots(t *testing.T) {
	// A hopeless channel must not loop forever; unverified messages are
	// reported as lost.
	src := prng.NewSource(6)
	k := 4
	msgs := makeMessages(src, k, 32)
	ch := channel.NewFromSNRBand(k, -15, -10, src) // buried in noise
	cfg := Config{Seeds: seeds(k), SessionSalt: 5, CRC: bits.CRC5, MaxSlots: 25}
	res, err := Transfer(cfg, msgs, ch, src.Fork(1), src.Fork(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.SlotsUsed > 25 {
		t.Fatalf("exceeded MaxSlots: %d", res.SlotsUsed)
	}
	if res.Lost() == 0 {
		t.Log("note: everything decoded at -15 dB; CRC-5 false accepts are possible but all 4 is unlikely")
	}
}

func TestTransferInputValidation(t *testing.T) {
	src := prng.NewSource(7)
	ch := channel.NewUniform(2, 20, src)
	if _, err := Transfer(Config{Seeds: seeds(2)}, makeMessages(src, 3, 8), ch, src, src); err == nil {
		t.Fatal("expected message-count error")
	}
	if _, err := Transfer(Config{Seeds: seeds(3)}, makeMessages(src, 3, 8), ch, src, src); err == nil {
		t.Fatal("expected channel-size error")
	}
	uneven := []bits.Vector{bits.Random(src, 8), bits.Random(src, 9)}
	if _, err := Transfer(Config{Seeds: seeds(2)}, uneven, ch, src, src); err == nil {
		t.Fatal("expected uneven-length error")
	}
}

func TestTransferEmptyNetwork(t *testing.T) {
	res, err := Transfer(Config{}, nil, channel.NewExact(nil, 1), prng.NewSource(1), prng.NewSource(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.SlotsUsed != 0 {
		t.Fatal("empty network should use no slots")
	}
}

func TestParticipatesSharedComputation(t *testing.T) {
	// Tag and reader must agree slot by slot; also different salts must
	// give different schedules.
	agree := true
	diff := 0
	for slot := 0; slot < 200; slot++ {
		a := Participates(42, 7, slot, 0.3)
		b := Participates(42, 7, slot, 0.3)
		if a != b {
			agree = false
		}
		if Participates(42, 8, slot, 0.3) != a {
			diff++
		}
	}
	if !agree {
		t.Fatal("tag and reader disagree on participation")
	}
	if diff == 0 {
		t.Fatal("session salt has no effect")
	}
}

func TestParticipationDensity(t *testing.T) {
	hits := 0
	const slots = 20000
	for slot := 0; slot < slots; slot++ {
		if Participates(99, 1, slot, 0.25) {
			hits++
		}
	}
	frac := float64(hits) / slots
	if math.Abs(frac-0.25) > 0.02 {
		t.Fatalf("participation density %f, want 0.25", frac)
	}
}

func TestDensityDefaults(t *testing.T) {
	want := DefaultMeanColliders / 14
	if d := participationDensity(0, 14); math.Abs(d-want) > 1e-12 {
		t.Fatalf("density %f, want %f", d, want)
	}
	if d := participationDensity(0, 2); d != MaxDensity {
		t.Fatalf("tiny networks should clamp density to MaxDensity, got %f", d)
	}
	if participationDensity(0.4, 8) != 0.4 {
		t.Fatal("explicit density ignored")
	}
}

func TestTransferDeterministic(t *testing.T) {
	src := prng.NewSource(8)
	k := 6
	msgs := makeMessages(src, k, 32)
	ch := channel.NewFromSNRBand(k, 10, 20, src)
	cfg := Config{Seeds: seeds(k), SessionSalt: 11, CRC: bits.CRC5, Restarts: 1}
	a, err := Transfer(cfg, msgs, ch, prng.NewSource(1), prng.NewSource(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Transfer(cfg, msgs, ch, prng.NewSource(1), prng.NewSource(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.SlotsUsed != b.SlotsUsed || a.Lost() != b.Lost() {
		t.Fatal("transfer is not deterministic under fixed seeds")
	}
}

func TestTransferCRC16Messages(t *testing.T) {
	// 96-bit messages with CRC-16 (the Fig. 9 configuration).
	src := prng.NewSource(9)
	k := 6
	msgs := makeMessages(src, k, 96)
	ch := channel.NewFromSNRBand(k, 14, 24, src)
	cfg := Config{Seeds: seeds(k), SessionSalt: 12, CRC: bits.CRC16, Restarts: 2}
	res, err := Transfer(cfg, msgs, ch, src.Fork(1), src.Fork(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost() != 0 {
		t.Fatalf("lost %d of %d CRC-16 messages", res.Lost(), k)
	}
	for i, p := range res.Payloads(bits.CRC16) {
		if !p.Equal(msgs[i]) {
			t.Fatalf("tag %d wrong payload", i)
		}
	}
}

func BenchmarkTransferK8(b *testing.B) {
	src := prng.NewSource(10)
	k := 8
	msgs := makeMessages(src, k, 32)
	ch := channel.NewFromSNRBand(k, 12, 22, src)
	cfg := Config{Seeds: seeds(k), SessionSalt: 13, CRC: bits.CRC5, Restarts: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Transfer(cfg, msgs, ch, prng.NewSource(uint64(i)), prng.NewSource(uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTransferSurvivesTagDeath(t *testing.T) {
	// §6d: "If a backscatter node runs out of power in the middle of the
	// data collection phase, its impact on the other nodes will be
	// minimal." The dead tag's message is lost; the survivors' messages
	// must still arrive correctly, merely costing extra collisions.
	src := prng.NewSource(77)
	k := 8
	msgs := makeMessages(src, k, 32)
	ch := channel.NewFromSNRBand(k, 15, 25, src)
	dies := make([]int, k)
	dies[3] = 2 // tag 3's capacitor empties after slot 1
	cfg := Config{
		Seeds: seeds(k), SessionSalt: 5, CRC: bits.CRC5, Restarts: 2,
		MaxSlots: 40 * k, DiesAtSlot: dies,
	}
	res, err := Transfer(cfg, msgs, ch, src.Fork(1), src.Fork(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Payloads(bits.CRC5) {
		if i == 3 {
			if res.Verified[3] && !p.Equal(msgs[3]) {
				t.Fatal("dead tag delivered a wrong payload — must be lost or correct")
			}
			continue
		}
		if !res.Verified[i] {
			t.Errorf("survivor %d lost its message to tag 3's death", i)
			continue
		}
		if !p.Equal(msgs[i]) {
			t.Errorf("survivor %d delivered a wrong payload", i)
		}
	}
}

func TestTransferTagDeathCostsSlots(t *testing.T) {
	// The paper's quantitative claim: a mid-transfer death translates to
	// extra collisions for the remaining tags, not failure.
	src := prng.NewSource(78)
	k := 8
	msgs := makeMessages(src, k, 32)
	ch := channel.NewFromSNRBand(k, 15, 25, src)
	base := Config{Seeds: seeds(k), SessionSalt: 6, CRC: bits.CRC5, Restarts: 2, MaxSlots: 40 * k}
	healthy, err := Transfer(base, msgs, ch, prng.NewSource(9), prng.NewSource(10))
	if err != nil {
		t.Fatal(err)
	}
	withDeath := base
	withDeath.DiesAtSlot = make([]int, k)
	withDeath.DiesAtSlot[0] = 2
	hurt, err := Transfer(withDeath, msgs, ch, prng.NewSource(9), prng.NewSource(10))
	if err != nil {
		t.Fatal(err)
	}
	survivors := 0
	for i := 1; i < k; i++ {
		if hurt.Verified[i] {
			survivors++
		}
	}
	if survivors < k-1 {
		t.Fatalf("only %d/%d survivors delivered", survivors, k-1)
	}
	if hurt.SlotsUsed < healthy.SlotsUsed {
		t.Logf("note: death run finished in fewer slots (%d vs %d) — possible but unusual",
			hurt.SlotsUsed, healthy.SlotsUsed)
	}
}

func TestSilenceDecodedStillDelivers(t *testing.T) {
	// The §8.2 ACK alternative must remain correct — the question the
	// extension bench answers is only whether it is *worth* it.
	src := prng.NewSource(91)
	k := 10
	msgs := makeMessages(src, k, 32)
	ch := channel.NewFromSNRBand(k, 14, 28, src)
	cfg := Config{
		Seeds: seeds(k), SessionSalt: 9, CRC: bits.CRC5, Restarts: 2,
		MaxSlots: 40 * k, SilenceDecoded: true,
	}
	res, err := Transfer(cfg, msgs, ch, src.Fork(1), src.Fork(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost() != 0 {
		t.Fatalf("lost %d with silencing on", res.Lost())
	}
	for i, p := range res.Payloads(bits.CRC5) {
		if !p.Equal(msgs[i]) {
			t.Fatalf("tag %d wrong payload with silencing on", i)
		}
	}
	if res.AckDownlinkBits != 18*k {
		t.Fatalf("ACK accounting: %d bits for %d tags", res.AckDownlinkBits, k)
	}
	if res.AckTurnarounds != 2*k {
		t.Fatalf("turnaround accounting: %d for %d tags", res.AckTurnarounds, k)
	}
}

func TestSilenceDecodedReducesParticipation(t *testing.T) {
	// Silenced tags stop transmitting: their participation counts must
	// not exceed what they accumulated before their decode slot.
	src := prng.NewSource(92)
	k := 8
	msgs := makeMessages(src, k, 32)
	ch := channel.NewFromSNRBand(k, 16, 28, src)
	base := Config{Seeds: seeds(k), SessionSalt: 10, CRC: bits.CRC5, Restarts: 2, MaxSlots: 40 * k}
	on := base
	on.SilenceDecoded = true
	rOn, err := Transfer(on, msgs, ch, prng.NewSource(3), prng.NewSource(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if !rOn.Verified[i] {
			continue
		}
		// After its decode slot the tag must be silent: participation
		// can never exceed the decode slot index.
		if rOn.Participation[i] > rOn.DecodedAtSlot[i] {
			t.Fatalf("tag %d participated %d times but decoded at slot %d",
				i, rOn.Participation[i], rOn.DecodedAtSlot[i])
		}
	}
	if rOn.AckDownlinkBits == 0 {
		t.Fatal("no ACK cost recorded")
	}
}
