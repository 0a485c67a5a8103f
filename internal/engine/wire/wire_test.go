package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/iotest"

	"repro/internal/bits"
)

// roundTrip pushes a frame through WriteFrame/ReadFrame and requires
// the decoded copy to be deeply equal.
func roundTrip(t *testing.T, f Frame) Frame {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatalf("WriteFrame(%T): %v", f, err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame(%T): %v", f, err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Fatalf("round trip mismatch\n sent %#v\n got  %#v", f, got)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left after one frame", buf.Len())
	}
	return got
}

func TestRoundTripAllFrames(t *testing.T) {
	frames := []Frame{
		&Open{
			Version: ProtocolVersion, Salt: 0xDEAD_BEEF_CAFE, DecodeSeed: 42,
			CRC: 2, MessageBits: 96, MaxSlots: 4000, Restarts: 2,
			WindowSlots: 120, ConfirmWindow: 90, RosterCap: 24,
			Seeds: []uint64{1, math.MaxUint64, 7},
			Taps:  []complex128{1 + 2i, complex(math.Inf(1), -0.25), -3},
			// WindowTag non-nil but with zero entries must survive too.
			WindowTag: []uint32{0, 40, 0},
		},
		&Open{Version: ProtocolVersion, MessageBits: 8, MaxSlots: 1},
		&Slot{
			SessionID: 9,
			Arrivals:  []Arrival{{Seed: 11, Tap: 0.5 - 0.5i, Window: 64}},
			Departs:   []uint32{0, 3},
			Retap:     []complex128{1, 1i, -1},
			Obs:       []complex128{0.25 + 0.125i, -2},
		},
		// nil vs empty Retap is semantically different (unchanged vs
		// explicit zero-length) and must be preserved.
		&Slot{SessionID: 1, Obs: []complex128{1}},
		&Slot{SessionID: 1, Retap: []complex128{}, Obs: []complex128{1}},
		&Close{SessionID: 77},
		&Stats{},
		&Opened{SessionID: 5, FrameLen: 104},
		&Decisions{
			SessionID: 5, Slot: 31, Colliders: 4, TotalAccepted: 2, RowsRetired: 1, Done: false,
			Accepted: []Decision{
				{Tag: 3, Frame: bits.Vector{true, false, true, true, false, false, true, false, true}},
				{Tag: 0, Frame: bits.Vector{false}},
			},
		},
		&Decisions{SessionID: 5, Slot: 32, Done: true},
		&Closed{SessionID: 5, SlotsUsed: 200, Joined: 12, Accepted: 12, RowsRetired: 33},
		&StatsReply{
			ActiveSessions: 3, SessionsOpened: 10, SessionsClosed: 7, SessionsShed: 1,
			SlotsIngested: 12345, RowsRetired: 99, PayloadsAccepted: 88, UptimeMillis: 1234567,
			BusyRejected: 4, DeadlineDrops: 2, MalformedFrames: 6, PanicsRecovered: 1,
		},
		&Error{SessionID: 4, Msg: "session dead: slot 9: observation length 3, want 104"},
		&Error{SessionID: 2, Code: CodeBusy, Msg: "session cap reached"},
		&Error{Code: CodeMalformed},
		&Error{},
	}
	for _, f := range frames {
		roundTrip(t, f)
	}
}

func TestReadFrameStream(t *testing.T) {
	// Several frames back to back through one reader.
	var buf bytes.Buffer
	sent := []Frame{
		&Stats{},
		&Opened{SessionID: 1, FrameLen: 8},
		&Close{SessionID: 1},
	}
	for _, f := range sent {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range sent {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("frame %d mismatch: %#v != %#v", i, want, got)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("clean end of stream: got %v, want io.EOF", err)
	}
}

func TestReadFrameErrors(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
	}{
		{"empty length", []byte{0, 0, 0, 0}},
		{"oversized length", []byte{0xff, 0xff, 0xff, 0xff, TypeStats}},
		{"truncated header", []byte{5, 0}},
		{"truncated payload", []byte{10, 0, 0, 0, TypeClose, 1, 2}},
		{"unknown type", []byte{1, 0, 0, 0, 0x55}},
		{"trailing bytes", []byte{10, 0, 0, 0, TypeClose, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{"truncated open", []byte{3, 0, 0, 0, TypeOpen, ProtocolVersion, 0}},
		// Slot claiming 2^32-1 arrivals in a 16-byte payload: the
		// count guard must refuse before allocating.
		{"hostile count", append([]byte{17, 0, 0, 0, TypeSlot, 1, 0, 0, 0, 0, 0, 0, 0}, 0xff, 0xff, 0xff, 0xff)},
	}
	for _, tc := range cases {
		if _, err := ReadFrame(bytes.NewReader(tc.raw)); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
	// A partial frame mid-stream is an unexpected EOF, not a clean one.
	if _, err := ReadFrame(bytes.NewReader([]byte{9, 0, 0, 0, TypeClose, 1})); err != io.ErrUnexpectedEOF {
		t.Errorf("partial frame: got %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestReadFrameErrorClass pins the malformed-vs-broken split the
// server's error budget depends on: a frame whose payload read fully
// but failed to decode is ErrMalformed (the stream is still in sync and
// the reader may continue); a short read or hostile length prefix is
// not (framing is lost, the connection must drop).
func TestReadFrameErrorClass(t *testing.T) {
	malformed := [][]byte{
		{1, 0, 0, 0, 0x55},                                  // unknown frame type, framing fine
		{3, 0, 0, 0, TypeOpen, ProtocolVersion, 0},          // truncated Open payload
		{10, 0, 0, 0, TypeClose, 1, 2, 3, 4, 5, 6, 7, 8, 9}, // trailing bytes
	}
	for _, raw := range malformed {
		_, err := ReadFrame(bytes.NewReader(raw))
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("frame % x: err %v, want ErrMalformed", raw, err)
		}
	}
	broken := [][]byte{
		{0, 0, 0, 0},                   // zero length
		{0xff, 0xff, 0xff, 0xff, 0x01}, // hostile length prefix
		{9, 0, 0, 0, TypeClose, 1},     // payload cut mid-frame
		{5, 0},                         // header cut
	}
	for _, raw := range broken {
		_, err := ReadFrame(bytes.NewReader(raw))
		if err == nil || errors.Is(err, ErrMalformed) {
			t.Errorf("frame % x: err %v, want a non-ErrMalformed failure", raw, err)
		}
	}
}

// TestReadFrameTruncatedMidFrame drives ReadFrame against a reader that
// dribbles a valid frame one byte at a time and cuts it at every
// possible offset — the sticky-error decode path must always surface an
// error (never a panic, never a bogus frame), and a cut before the
// first byte must stay a clean io.EOF.
func TestReadFrameTruncatedMidFrame(t *testing.T) {
	full, err := Append(nil, &Slot{
		SessionID: 3,
		Arrivals:  []Arrival{{Seed: 1, Tap: 1i, Window: 9}},
		Retap:     []complex128{0.5},
		Obs:       []complex128{1, -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut++ {
		r := iotest.OneByteReader(bytes.NewReader(full[:cut]))
		f, err := ReadFrame(r)
		if err == nil {
			t.Fatalf("cut at %d/%d: decoded %#v from a truncated stream", cut, len(full), f)
		}
		if cut == 0 && err != io.EOF {
			t.Fatalf("cut before first byte: %v, want io.EOF", err)
		}
		if cut > 0 && err == io.EOF {
			t.Fatalf("cut at %d: clean io.EOF for a partial frame", cut)
		}
	}
	// And the whole frame, dribbled, still decodes.
	if _, err := ReadFrame(iotest.OneByteReader(bytes.NewReader(full))); err != nil {
		t.Fatalf("one-byte reads over a full frame: %v", err)
	}
}

// countingReader counts the Read calls that reach the wrapped reader.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestReadFrameHeaderInOneRead pins ReadFrame's header read: a frame
// costs two reads of its source (the five-byte header, then the
// payload), a stream that ends before the first byte is a clean io.EOF,
// and one that ends inside the header is io.ErrUnexpectedEOF.
func TestReadFrameHeaderInOneRead(t *testing.T) {
	full, err := Append(nil, &Close{SessionID: 7})
	if err != nil {
		t.Fatal(err)
	}
	cr := &countingReader{r: bytes.NewReader(full)}
	if f, err := ReadFrame(cr); err != nil || f.(*Close).SessionID != 7 {
		t.Fatalf("ReadFrame: %#v, %v", f, err)
	}
	if cr.reads != 2 {
		t.Fatalf("ReadFrame issued %d reads for one frame, want 2", cr.reads)
	}
	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
	for cut := 1; cut < 5; cut++ {
		if _, err := ReadFrame(bytes.NewReader(full[:cut])); err != io.ErrUnexpectedEOF {
			t.Fatalf("header cut after %d bytes: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestBitVectorPacking(t *testing.T) {
	// Exercise every length mod 8 including the empty vector.
	for n := 0; n <= 17; n++ {
		v := make(bits.Vector, n)
		for i := range v {
			v[i] = i%3 == 0
		}
		f := &Decisions{SessionID: 1, Accepted: []Decision{{Tag: 9, Frame: v}}}
		got := roundTrip(t, f).(*Decisions)
		if len(got.Accepted) != 1 || len(got.Accepted[0].Frame) != n {
			t.Fatalf("n=%d: packed frame came back with %d entries", n, len(got.Accepted))
		}
	}
}

// FuzzWireDecode pins the codec's hostile-input contract: arbitrary
// bytes may fail to decode but must never panic or round-trip
// unfaithfully. Anything that decodes is re-encoded and re-decoded; the
// two parses must agree.
func FuzzWireDecode(f *testing.F) {
	seedFrames := []Frame{
		&Open{Version: ProtocolVersion, MessageBits: 8, MaxSlots: 10, Seeds: []uint64{3},
			Taps: []complex128{1}, WindowTag: []uint32{5}},
		&Slot{SessionID: 2, Arrivals: []Arrival{{Seed: 9, Tap: 1i, Window: 3}},
			Departs: []uint32{0}, Retap: []complex128{2}, Obs: []complex128{1, -1}},
		&Decisions{SessionID: 3, Slot: 4,
			Accepted: []Decision{{Tag: 1, Frame: bits.Vector{true, false, true}}}},
		&Closed{SessionID: 1, SlotsUsed: 9},
		&StatsReply{ActiveSessions: 2},
		&Error{SessionID: 1, Msg: "boom"},
		&Stats{},
	}
	for _, fr := range seedFrames {
		b, err := Append(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b[4], b[5:])
	}
	f.Add(byte(TypeSlot), []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(byte(0x00), []byte{})

	// Hostile shapes the chaos fault injector produces: single-bit
	// corruptions and truncations of otherwise-valid frames. Seeding
	// them keeps the corpus exercising the exact frames a flaky
	// transport hands the daemon, not just random bytes.
	for _, fr := range seedFrames {
		b, err := Append(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		payload := b[5:]
		for _, off := range []int{0, len(payload) / 2, len(payload) - 1} {
			if off < 0 || off >= len(payload) {
				continue
			}
			mut := append([]byte(nil), payload...)
			mut[off] ^= 0x40
			f.Add(b[4], mut)
		}
		for _, cut := range []int{1, len(payload) / 2, len(payload) - 1} {
			if cut < 0 || cut > len(payload) {
				continue
			}
			f.Add(b[4], append([]byte(nil), payload[:cut]...))
		}
	}
	// Count fields corrupted to claim more elements than the payload
	// holds (the allocation-guard path), and an Error frame whose
	// message length outruns its bytes.
	f.Add(byte(TypeOpen), append(append([]byte{ProtocolVersion, 0}, make([]byte, 37)...), 0xff, 0xff, 0xff, 0x7f))
	f.Add(byte(TypeError), []byte{1, 0, 0, 0, 0, 0, 0, 0, CodeBusy, 0xff, 0xff, 'h', 'i'})
	f.Add(byte(TypeDecisions), append(bytes.Repeat([]byte{2}, 21), 0xee, 0xee, 0xee, 0xee))

	f.Fuzz(func(t *testing.T, frameType byte, payload []byte) {
		fr, err := Decode(frameType, payload)
		if err != nil {
			return
		}
		b, err := Append(nil, fr)
		if err != nil {
			t.Fatalf("decoded frame fails to re-encode: %v", err)
		}
		fr2, err := Decode(b[4], b[5:])
		if err != nil {
			t.Fatalf("re-encoded frame fails to decode: %v", err)
		}
		// NaN payload floats break DeepEqual; the framing is what we
		// pin, so compare the re-encoded bytes instead.
		b2, err := Append(nil, fr2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("re-encode not stable:\n %x\n %x", b, b2)
		}
	})
}
