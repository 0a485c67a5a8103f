// Package wire defines buzzd's length-prefixed binary stream protocol:
// the frames a reader client exchanges with the decode daemon. Framing
// is a 4-byte little-endian payload length, a 1-byte frame type, then
// the typed payload; integers are little-endian, floats IEEE-754
// binary64, complex values two float64s (re, im), bit vectors a 32-bit
// bit count plus packed LSB-first bytes.
//
// The codec is hostile-input safe by construction: every decode runs on
// a bounds-checked cursor, length fields are validated against the
// bytes actually present before any allocation, and a frame longer than
// MaxFrameLen is refused at the header. FuzzWireDecode pins the
// no-panic property — a malformed frame yields an error, never a crash,
// so nothing a client sends can take the daemon down.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/bits"
)

// ProtocolVersion is the wire protocol revision; Open carries it and
// the daemon refuses mismatches.
const ProtocolVersion = 1

// MaxFrameLen bounds one frame's payload. Large enough for any real
// slot (observations scale with frame length, not population), small
// enough that a hostile length prefix cannot balloon memory.
const MaxFrameLen = 1 << 22

// Frame types. Client→server types sit below 0x80, server→client above.
const (
	TypeOpen  = 0x01
	TypeSlot  = 0x02
	TypeClose = 0x03
	TypeStats = 0x04

	TypeOpened    = 0x81
	TypeDecisions = 0x82
	TypeClosed    = 0x83
	TypeStatsRep  = 0x84
	TypeError     = 0x7f
)

// Frame is one protocol message.
type Frame interface {
	// Type returns the frame's wire type byte.
	Type() byte
	appendPayload(b []byte) []byte
	decodePayload(r *reader) error
}

// Open asks the daemon to start a decode session. The window fields
// arrive pre-resolved (ratedapt.WindowPolicy.EffectiveSlots /
// ResolveTagWindows) — the client owns the channel model, so coherence
// resolution happens exactly once, client-side. DecodeSeed seeds the
// daemon's decode source; a client that mirrors a batch run transmits
// the fork seed of its setup stream so both sides draw identical
// estimate and decode-base streams. WindowSoft is the removed soft
// per-tag mode's flag: its byte stays so the frame layout is unchanged,
// and the daemon rejects an Open that sets it.
type Open struct {
	Version         uint16
	Salt            uint64
	DecodeSeed      uint64
	CRC             uint8
	MessageBits     uint16
	MaxSlots        uint32
	Restarts        uint16
	MinDegree       uint16
	MarginThreshold float64
	Density         float64
	WindowSlots     uint32
	ConfirmWindow   uint32
	WindowSoft      bool
	RosterCap       uint32
	Seeds           []uint64
	Taps            []complex128
	// WindowTag is nil (no per-tag windows) or one resolved window per
	// seed; non-nil arms per-tag gating even if all entries are zero.
	WindowTag []uint32
}

// Arrival is one tag joining mid-session (see ratedapt.StreamArrival).
type Arrival struct {
	Seed   uint64
	Tap    complex128
	Window uint32
}

// Slot carries one collision slot: population events, the optional
// channel retap, and the received observation per bit position.
type Slot struct {
	SessionID uint64
	Arrivals  []Arrival
	Departs   []uint32
	// Retap non-nil supplies this slot's decoder taps for all joined
	// tags (post-arrival count).
	Retap []complex128
	Obs   []complex128
}

// Close ends a session; the daemon replies with Closed.
type Close struct {
	SessionID uint64
}

// Stats requests a StatsReply.
type Stats struct{}

// Opened confirms a session.
type Opened struct {
	SessionID uint64
	FrameLen  uint32
}

// Decision is one accepted payload: the session-local tag index (join
// order) and the accepted frame (payload + CRC bits).
type Decision struct {
	Tag   uint32
	Frame bits.Vector
}

// Decisions reports one ingested slot's outcome.
type Decisions struct {
	SessionID     uint64
	Slot          uint32
	Colliders     uint32
	TotalAccepted uint32
	RowsRetired   uint32
	Done          bool
	Accepted      []Decision
}

// Closed is a session's final summary.
type Closed struct {
	SessionID   uint64
	SlotsUsed   uint32
	Joined      uint32
	Accepted    uint32
	RowsRetired uint64
}

// StatsReply snapshots the daemon's live counters, including the
// per-reason failure counters (deadline, malformed, panic,
// busy-rejected) that make failures observable from counters rather
// than logs.
type StatsReply struct {
	ActiveSessions int64
	SessionsOpened int64
	SessionsClosed int64
	// SessionsShed is no longer produced and always reads 0; retire it
	// with the next protocol version.
	SessionsShed     int64
	SlotsIngested    int64
	RowsRetired      int64
	PayloadsAccepted int64
	UptimeMillis     int64
	BusyRejected     int64
	DeadlineDrops    int64
	MalformedFrames  int64
	PanicsRecovered  int64
}

// Error codes classify an Error frame so clients can decide a retry
// policy without parsing message strings: Busy and Draining are
// retry-later, Malformed burns the sender's error budget, Panic means
// the named session is dead but the connection survives, and TooLarge
// refuses a Slot whose arrivals would grow the named session's tables
// past the daemon's per-session bound (the session stays open and has
// not seen the slot). Shed is no longer produced; retire it with the
// next protocol version.
const (
	CodeGeneric        uint8 = 0
	CodeBusy           uint8 = 1
	CodeDraining       uint8 = 2
	CodeMalformed      uint8 = 3
	CodePanic          uint8 = 4
	CodeShed           uint8 = 5
	CodeUnknownSession uint8 = 6
	CodeProtocol       uint8 = 7
	CodeTooLarge       uint8 = 8
)

// Error reports a failed request or a dead session (SessionID 0 =
// connection-level). Code is one of the Code* constants.
type Error struct {
	SessionID uint64
	Code      uint8
	Msg       string
}

func (*Open) Type() byte       { return TypeOpen }
func (*Slot) Type() byte       { return TypeSlot }
func (*Close) Type() byte      { return TypeClose }
func (*Stats) Type() byte      { return TypeStats }
func (*Opened) Type() byte     { return TypeOpened }
func (*Decisions) Type() byte  { return TypeDecisions }
func (*Closed) Type() byte     { return TypeClosed }
func (*StatsReply) Type() byte { return TypeStatsRep }
func (*Error) Type() byte      { return TypeError }

// --- Encoding. ---

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}
func appendC128(b []byte, v complex128) []byte {
	b = appendF64(b, real(v))
	return appendF64(b, imag(v))
}
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendC128s(b []byte, vs []complex128) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendC128(b, v)
	}
	return b
}

// appendBits packs a bit vector LSB-first.
func appendBits(b []byte, v bits.Vector) []byte {
	b = appendU32(b, uint32(len(v)))
	var cur byte
	for i, bit := range v {
		if bit {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			b = append(b, cur)
			cur = 0
		}
	}
	if len(v)%8 != 0 {
		b = append(b, cur)
	}
	return b
}

func (f *Open) appendPayload(b []byte) []byte {
	b = appendU16(b, f.Version)
	b = appendU64(b, f.Salt)
	b = appendU64(b, f.DecodeSeed)
	b = append(b, f.CRC)
	b = appendU16(b, f.MessageBits)
	b = appendU32(b, f.MaxSlots)
	b = appendU16(b, f.Restarts)
	b = appendU16(b, f.MinDegree)
	b = appendF64(b, f.MarginThreshold)
	b = appendF64(b, f.Density)
	b = appendU32(b, f.WindowSlots)
	b = appendU32(b, f.ConfirmWindow)
	b = appendBool(b, f.WindowSoft)
	b = appendU32(b, f.RosterCap)
	b = appendU32(b, uint32(len(f.Seeds)))
	for _, s := range f.Seeds {
		b = appendU64(b, s)
	}
	b = appendC128s(b, f.Taps)
	b = appendBool(b, f.WindowTag != nil)
	if f.WindowTag != nil {
		b = appendU32(b, uint32(len(f.WindowTag)))
		for _, w := range f.WindowTag {
			b = appendU32(b, w)
		}
	}
	return b
}

func (f *Slot) appendPayload(b []byte) []byte {
	b = appendU64(b, f.SessionID)
	b = appendU32(b, uint32(len(f.Arrivals)))
	for _, a := range f.Arrivals {
		b = appendU64(b, a.Seed)
		b = appendC128(b, a.Tap)
		b = appendU32(b, a.Window)
	}
	b = appendU32(b, uint32(len(f.Departs)))
	for _, d := range f.Departs {
		b = appendU32(b, d)
	}
	b = appendBool(b, f.Retap != nil)
	if f.Retap != nil {
		b = appendC128s(b, f.Retap)
	}
	b = appendC128s(b, f.Obs)
	return b
}

func (f *Close) appendPayload(b []byte) []byte { return appendU64(b, f.SessionID) }
func (f *Stats) appendPayload(b []byte) []byte { return b }

func (f *Opened) appendPayload(b []byte) []byte {
	b = appendU64(b, f.SessionID)
	return appendU32(b, f.FrameLen)
}

func (f *Decisions) appendPayload(b []byte) []byte {
	b = appendU64(b, f.SessionID)
	b = appendU32(b, f.Slot)
	b = appendU32(b, f.Colliders)
	b = appendU32(b, f.TotalAccepted)
	b = appendU32(b, f.RowsRetired)
	b = appendBool(b, f.Done)
	b = appendU32(b, uint32(len(f.Accepted)))
	for _, d := range f.Accepted {
		b = appendU32(b, d.Tag)
		b = appendBits(b, d.Frame)
	}
	return b
}

func (f *Closed) appendPayload(b []byte) []byte {
	b = appendU64(b, f.SessionID)
	b = appendU32(b, f.SlotsUsed)
	b = appendU32(b, f.Joined)
	b = appendU32(b, f.Accepted)
	return appendU64(b, f.RowsRetired)
}

func (f *StatsReply) appendPayload(b []byte) []byte {
	for _, v := range [...]int64{
		f.ActiveSessions, f.SessionsOpened, f.SessionsClosed, f.SessionsShed,
		f.SlotsIngested, f.RowsRetired, f.PayloadsAccepted, f.UptimeMillis,
		f.BusyRejected, f.DeadlineDrops, f.MalformedFrames, f.PanicsRecovered,
	} {
		b = appendU64(b, uint64(v))
	}
	return b
}

func (f *Error) appendPayload(b []byte) []byte {
	b = appendU64(b, f.SessionID)
	b = append(b, f.Code)
	msg := f.Msg
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	b = appendU16(b, uint16(len(msg)))
	return append(b, msg...)
}

// Append serializes a full frame — header and payload — onto b.
func Append(b []byte, f Frame) ([]byte, error) {
	start := len(b)
	b = appendU32(b, 0) // length backpatched below
	b = append(b, f.Type())
	b = f.appendPayload(b)
	n := len(b) - start - 4
	if n > MaxFrameLen+1 {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds MaxFrameLen", n-1)
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

// WriteFrame serializes f and writes it to w.
func WriteFrame(w io.Writer, f Frame) error {
	b, err := Append(nil, f)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// --- Decoding. ---

// reader is a bounds-checked little-endian cursor; the first short read
// poisons it and every subsequent read returns zero values.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated frame at offset %d", r.off)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.fail()
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *reader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) u16() uint16 {
	if b := r.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *reader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) c128() complex128 { return complex(r.f64(), r.f64()) }

func (r *reader) boolean() bool { return r.u8() != 0 }

// count reads a u32 element count and validates it against the bytes
// remaining at elemSize each, so a hostile count cannot drive a huge
// allocation.
func (r *reader) count(elemSize int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || (len(r.b)-r.off)/elemSize < n {
		r.fail()
		return 0
	}
	return n
}

func (r *reader) c128s() []complex128 {
	n := r.count(16)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]complex128, n)
	for i := range out {
		out[i] = r.c128()
	}
	return out
}

func (r *reader) bitvec() bits.Vector {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	nbytes := (n + 7) / 8
	if n < 0 || len(r.b)-r.off < nbytes {
		r.fail()
		return nil
	}
	packed := r.take(nbytes)
	out := make(bits.Vector, n)
	for i := range out {
		out[i] = packed[i/8]&(1<<(i%8)) != 0
	}
	return out
}

func (f *Open) decodePayload(r *reader) error {
	f.Version = r.u16()
	f.Salt = r.u64()
	f.DecodeSeed = r.u64()
	f.CRC = r.u8()
	f.MessageBits = r.u16()
	f.MaxSlots = r.u32()
	f.Restarts = r.u16()
	f.MinDegree = r.u16()
	f.MarginThreshold = r.f64()
	f.Density = r.f64()
	f.WindowSlots = r.u32()
	f.ConfirmWindow = r.u32()
	f.WindowSoft = r.boolean()
	f.RosterCap = r.u32()
	if n := r.count(8); r.err == nil && n > 0 {
		f.Seeds = make([]uint64, n)
		for i := range f.Seeds {
			f.Seeds[i] = r.u64()
		}
	}
	f.Taps = r.c128s()
	if r.boolean() {
		if n := r.count(4); r.err == nil {
			f.WindowTag = make([]uint32, n)
			for i := range f.WindowTag {
				f.WindowTag[i] = r.u32()
			}
		}
	}
	return r.err
}

func (f *Slot) decodePayload(r *reader) error {
	f.SessionID = r.u64()
	if n := r.count(28); r.err == nil && n > 0 {
		f.Arrivals = make([]Arrival, n)
		for i := range f.Arrivals {
			f.Arrivals[i] = Arrival{Seed: r.u64(), Tap: r.c128(), Window: r.u32()}
		}
	}
	if n := r.count(4); r.err == nil && n > 0 {
		f.Departs = make([]uint32, n)
		for i := range f.Departs {
			f.Departs[i] = r.u32()
		}
	}
	if r.boolean() {
		f.Retap = r.c128s()
		if f.Retap == nil && r.err == nil {
			f.Retap = []complex128{}
		}
	}
	f.Obs = r.c128s()
	return r.err
}

func (f *Close) decodePayload(r *reader) error {
	f.SessionID = r.u64()
	return r.err
}

func (f *Stats) decodePayload(r *reader) error { return r.err }

func (f *Opened) decodePayload(r *reader) error {
	f.SessionID = r.u64()
	f.FrameLen = r.u32()
	return r.err
}

func (f *Decisions) decodePayload(r *reader) error {
	f.SessionID = r.u64()
	f.Slot = r.u32()
	f.Colliders = r.u32()
	f.TotalAccepted = r.u32()
	f.RowsRetired = r.u32()
	f.Done = r.boolean()
	if n := r.count(8); r.err == nil && n > 0 {
		f.Accepted = make([]Decision, n)
		for i := range f.Accepted {
			f.Accepted[i] = Decision{Tag: r.u32(), Frame: r.bitvec()}
		}
	}
	return r.err
}

func (f *Closed) decodePayload(r *reader) error {
	f.SessionID = r.u64()
	f.SlotsUsed = r.u32()
	f.Joined = r.u32()
	f.Accepted = r.u32()
	f.RowsRetired = r.u64()
	return r.err
}

func (f *StatsReply) decodePayload(r *reader) error {
	for _, p := range [...]*int64{
		&f.ActiveSessions, &f.SessionsOpened, &f.SessionsClosed, &f.SessionsShed,
		&f.SlotsIngested, &f.RowsRetired, &f.PayloadsAccepted, &f.UptimeMillis,
		&f.BusyRejected, &f.DeadlineDrops, &f.MalformedFrames, &f.PanicsRecovered,
	} {
		*p = int64(r.u64())
	}
	return r.err
}

func (f *Error) decodePayload(r *reader) error {
	f.SessionID = r.u64()
	f.Code = r.u8()
	n := int(r.u16())
	if b := r.take(n); b != nil {
		f.Msg = string(b)
	}
	return r.err
}

// Decode parses one frame's payload by type. Unknown types and
// malformed payloads return errors; trailing payload bytes are
// rejected (a length/content mismatch means a confused peer).
func Decode(frameType byte, payload []byte) (Frame, error) {
	var f Frame
	switch frameType {
	case TypeOpen:
		f = &Open{}
	case TypeSlot:
		f = &Slot{}
	case TypeClose:
		f = &Close{}
	case TypeStats:
		f = &Stats{}
	case TypeOpened:
		f = &Opened{}
	case TypeDecisions:
		f = &Decisions{}
	case TypeClosed:
		f = &Closed{}
	case TypeStatsRep:
		f = &StatsReply{}
	case TypeError:
		f = &Error{}
	default:
		return nil, fmt.Errorf("wire: unknown frame type 0x%02x", frameType)
	}
	r := &reader{b: payload}
	if err := f.decodePayload(r); err != nil {
		return nil, err
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("wire: %d trailing bytes after frame type 0x%02x", len(payload)-r.off, frameType)
	}
	return f, nil
}

// ErrMalformed wraps decode-level failures on a frame whose length
// prefix was sane: the full payload was consumed off the stream, so
// framing is intact and the reader may keep going (an error budget's
// worth of times). Length-prefix and IO failures are NOT ErrMalformed —
// after those the byte stream cannot be resynchronized and the only
// safe move is to drop the connection.
var ErrMalformed = errors.New("wire: malformed frame")

// ReadFrame reads one length-prefixed frame from r. io.EOF at a frame
// boundary is returned as-is (clean close); a partial frame is
// io.ErrUnexpectedEOF. A frame that reads fully but fails to decode is
// reported wrapped in ErrMalformed (framing preserved, see above).
func ReadFrame(r io.Reader) (Frame, error) {
	// One read for the whole header: io.ReadFull reports io.EOF only
	// when no byte arrived, and io.ErrUnexpectedEOF for a short header.
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < 1 || n > MaxFrameLen+1 {
		return nil, fmt.Errorf("wire: frame length %d out of range", n)
	}
	payload := make([]byte, n-1)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	f, err := Decode(hdr[4], payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return f, nil
}
