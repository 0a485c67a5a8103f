package buzz

import (
	"bytes"
	"fmt"
	"testing"
)

func sensorTags(k int) []Tag {
	tags := make([]Tag, k)
	for i := range tags {
		tags[i] = Tag{
			ID:      uint64(0xE9C0000 + i*7919),
			Payload: []byte(fmt.Sprintf("t=%02d.%dC", 20+i, i%10)),
		}
	}
	return tags
}

func TestSessionRunDeliversEverything(t *testing.T) {
	for _, k := range []int{2, 5, 10} {
		tags := sensorTags(k)
		sess, err := NewSession(tags, Options{Seed: uint64(k)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered() != k {
			t.Fatalf("k=%d: delivered %d", k, res.Delivered())
		}
		for i, tr := range res.Tags {
			if !bytes.Equal(tr.Payload, tags[i].Payload) {
				t.Fatalf("k=%d: tag %d payload %q, want %q", k, i, tr.Payload, tags[i].Payload)
			}
			if tr.ID != tags[i].ID {
				t.Fatal("tag ids shuffled")
			}
			if tr.DecodedAtSlot < 1 || tr.DecodedAtSlot > res.Slots {
				t.Fatalf("impossible decode slot %d", tr.DecodedAtSlot)
			}
		}
	}
}

func TestSessionDeterministic(t *testing.T) {
	run := func() *Transfer {
		sess, err := NewSession(sensorTags(6), Options{Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Slots != b.Slots || a.BitsPerSymbol != b.BitsPerSymbol {
		t.Fatal("sessions with equal seeds diverged")
	}
}

func TestSessionSeedsMatter(t *testing.T) {
	slots := map[int]bool{}
	for seed := uint64(0); seed < 5; seed++ {
		sess, err := NewSession(sensorTags(6), Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		slots[res.Slots] = true
	}
	if len(slots) < 2 {
		t.Fatal("different seeds should realize different channels/transfers")
	}
}

func TestSessionValidation(t *testing.T) {
	if _, err := NewSession(nil, Options{}); err == nil {
		t.Fatal("expected empty-session error")
	}
	dup := []Tag{{ID: 1, Payload: []byte("ab")}, {ID: 1, Payload: []byte("cd")}}
	if _, err := NewSession(dup, Options{}); err == nil {
		t.Fatal("expected duplicate-id error")
	}
	uneven := []Tag{{ID: 1, Payload: []byte("ab")}, {ID: 2, Payload: []byte("abc")}}
	if _, err := NewSession(uneven, Options{}); err == nil {
		t.Fatal("expected uneven-payload error")
	}
	empty := []Tag{{ID: 1, Payload: nil}}
	if _, err := NewSession(empty, Options{}); err == nil {
		t.Fatal("expected empty-payload error")
	}
}

func TestTransferBeforeIdentify(t *testing.T) {
	sess, err := NewSession(sensorTags(3), Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.TransferData(); err == nil {
		t.Fatal("expected error when transferring before identification")
	}
}

func TestKnownScheduleSkipsIdentification(t *testing.T) {
	sess, err := NewSession(sensorTags(6), Options{Seed: 7, KnownSchedule: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.TransferData()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered() != 6 {
		t.Fatalf("periodic mode delivered %d of 6", res.Delivered())
	}
	for _, tr := range res.Tags {
		if !tr.Identified {
			t.Fatal("known-schedule tags must count as identified")
		}
	}
}

func TestIdentifyReportsPhaseCost(t *testing.T) {
	sess, err := NewSession(sensorTags(8), Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	id, err := sess.Identify()
	if err != nil {
		t.Fatal(err)
	}
	if id.Slots <= 0 || id.Millis <= 0 {
		t.Fatalf("identification cost not accounted: %+v", id)
	}
	if id.KEstimate < 2 || id.KEstimate > 32 {
		t.Fatalf("K estimate %d wildly off for K=8", id.KEstimate)
	}
	if id.IdentifiedCount() < 7 {
		t.Fatalf("identified only %d of 8", id.IdentifiedCount())
	}
}

func TestCRC16Sessions(t *testing.T) {
	tags := sensorTags(4)
	for i := range tags {
		tags[i].Payload = bytes.Repeat([]byte{byte(i + 1)}, 12) // 96-bit payloads
	}
	sess, err := NewSession(tags, Options{Seed: 3, CRC: CRC16})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered() != 4 {
		t.Fatalf("delivered %d of 4 CRC-16 messages", res.Delivered())
	}
}

func TestChallengingChannelStillDelivers(t *testing.T) {
	sess, err := NewSession(sensorTags(4), Options{
		Seed:    13,
		Channel: ChannelSpec{SNRLodB: 5, SNRHidB: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	identified := 0
	for _, tr := range res.Tags {
		if tr.Identified {
			identified++
		}
	}
	// Every identified tag's message must eventually arrive: the
	// rateless property.
	if res.Delivered() != identified {
		t.Fatalf("delivered %d of %d identified tags on a bad channel", res.Delivered(), identified)
	}
}

func TestProgressExposed(t *testing.T) {
	sess, err := NewSession(sensorTags(8), Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Progress) != res.Slots {
		t.Fatalf("progress has %d entries for %d slots", len(res.Progress), res.Slots)
	}
	total := 0
	for _, p := range res.Progress {
		total += p.NewlyDecoded
	}
	if total != res.Delivered() {
		t.Fatal("progress totals disagree with delivery count")
	}
}

// TestGoldenIdentifiedSession pins a full identify-then-transfer session
// byte for byte. Without KnownSchedule the decoder starts from the
// identification phase's tap estimates and refines them every slot
// (ratedapt.Config.RefineChannel), so this is the golden for that path.
func TestGoldenIdentifiedSession(t *testing.T) {
	const (
		wantSlots     = 8
		wantDecodedAt = "[7 5 3 5 4 8 4 7]"
		wantProgress  = "[{1 6 0 0 0} {2 4 0 0 0} {3 3 1 1 0.3333333333333333} {4 5 2 3 0.75} {5 7 2 5 1} {6 6 0 5 0.8333333333333334} {7 5 2 7 1} {8 7 1 8 1}]"
	)
	sess, err := NewSession(sensorTags(8), Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	decodedAt := make([]int, len(res.Tags))
	for i, tr := range res.Tags {
		decodedAt[i] = tr.DecodedAtSlot
	}
	gotDecodedAt, gotProgress := fmt.Sprint(decodedAt), fmt.Sprint(res.Progress)
	if res.Slots != wantSlots || gotDecodedAt != wantDecodedAt || gotProgress != wantProgress {
		t.Fatalf("golden drift:\n got slots=%d decodedAt=%s progress=%s\nwant slots=%d decodedAt=%s progress=%s",
			res.Slots, gotDecodedAt, gotProgress, wantSlots, wantDecodedAt, wantProgress)
	}
}

func TestBytesBitsRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{{0x00}, {0xFF}, {0xA5, 0x5A}, []byte("hello world")} {
		if got := bitsToBytes(bytesToBits(payload)); !bytes.Equal(got, payload) {
			t.Fatalf("round trip failed for %x: got %x", payload, got)
		}
	}
}

func BenchmarkSessionRunK8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sess, err := NewSession(sensorTags(8), Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
