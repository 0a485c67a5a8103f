package replay_test

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"repro/internal/bits"
	"repro/internal/engine/replay"
	"repro/internal/engine/wire"
	"repro/internal/scenario"
)

// earlyAcceptDaemon answers a replay client like a daemon whose slot 1
// reply accepts roster tag tag, then replies done to every later slot.
func earlyAcceptDaemon(conn net.Conn, tag uint32) error {
	var kind bits.CRCKind
	var msgBits, slot uint32
	for {
		f, err := wire.ReadFrame(conn)
		if err != nil {
			return err
		}
		var rep wire.Frame
		switch f := f.(type) {
		case *wire.Open:
			kind, msgBits = bits.CRCKind(f.CRC), uint32(f.MessageBits)
			rep = &wire.Opened{SessionID: 1, FrameLen: msgBits + uint32(kind.Width())}
		case *wire.Slot:
			slot++
			dec := &wire.Decisions{SessionID: 1, Slot: slot, Done: true}
			if slot == 1 {
				frame := bits.Message{Payload: make(bits.Vector, msgBits), Kind: kind}.Frame()
				dec.Accepted = []wire.Decision{{Tag: tag, Frame: frame}}
			}
			rep = dec
		case *wire.Close:
			rep = &wire.Closed{SessionID: 1, SlotsUsed: slot}
		default:
			return fmt.Errorf("unexpected frame %T", f)
		}
		if err := wire.WriteFrame(conn, rep); err != nil {
			return err
		}
	}
}

// TestRunTrialRejectsDecisionForUnjoinedTag pins that a decision may
// name only a tag that has joined by its slot. mobility.json's roster
// holds ten tags, of which tags 8 and 9 join at slot 6; a daemon that
// accepts tag 9 at slot 1 is desynchronized, and the client must say so
// instead of recording the tag as verified.
func TestRunTrialRejectsDecisionForUnjoinedTag(t *testing.T) {
	spec, err := scenario.Load("../../../examples/scenarios/mobility.json")
	if err != nil {
		t.Fatal(err)
	}
	client, daemon := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- earlyAcceptDaemon(daemon, 9) }()
	res, err := replay.RunTrial(client, spec, 0)
	client.Close()
	<-served
	if err == nil {
		t.Fatalf("client took a slot-1 decision for tag 9, which joins at slot 6 (Verified[9] = %v)", res.Verified[9])
	}
	if !strings.Contains(err.Error(), "tag 9") {
		t.Fatalf("error %q does not name the unjoined tag", err)
	}
}
