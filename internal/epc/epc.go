// Package epc collects the EPC Gen-2 protocol and timing constants the
// reproduction needs to account time the way the paper does: uplink
// (tag→reader) bits at the experiment bit rate of 80 kbps, downlink
// (reader→tag) command bits at the USRP reader's 27 kbps (§7), and the
// frame formats of the Framed-Slotted-Aloha identification dialogue
// (Query, QueryRep, RN16, ACK) plus the Q-adjustment parameters (§10).
package epc

// UplinkBitRate is the tag→reader bit rate used throughout the paper's
// evaluation (§8.2, §9): 80 kbps.
const UplinkBitRate = 80_000.0

// DownlinkBitRate is the reader→tag command rate of the paper's USRP
// reader (§7): 27 kbps.
const DownlinkBitRate = 27_000.0

// UplinkBitMicros is the duration of one uplink bit in microseconds.
const UplinkBitMicros = 1e6 / UplinkBitRate

// DownlinkBitMicros is the duration of one downlink bit in microseconds.
const DownlinkBitMicros = 1e6 / DownlinkBitRate

// Frame sizes, in bits, per the EPC Gen-2 air interface. Values are the
// on-air payload sizes; preambles and turnaround gaps are folded into
// TurnaroundBits below rather than tracked per frame type.
const (
	// QueryBits is a full Query command (command code, DR, M, TRext,
	// Sel, Session, Target, Q, CRC-5).
	QueryBits = 22
	// QueryRepBits advances to the next slot within a round.
	QueryRepBits = 4
	// QueryAdjustBits re-issues Q up or down mid-round.
	QueryAdjustBits = 9
	// RN16Bits is the 16-bit random temporary id a tag backscatters in
	// its chosen slot.
	RN16Bits = 16
	// AckBits is the reader's ACK echoing the RN16 (2-bit command code
	// + 16-bit RN16).
	AckBits = 18
)

// TurnaroundBits approximates the link turnaround time (T1+T2 in the
// standard) per reader-tag exchange, expressed in uplink bit durations.
const TurnaroundBits = 4

// Q-algorithm parameters (§10): the reader starts at Q = 4 and nudges a
// floating-point Qfp by C on collisions (up) and empties (down),
// re-issuing Query when round(Qfp) changes.
const (
	// InitialQ is the starting Q exponent; the frame has 2^Q slots.
	InitialQ = 4
	// QAdjustC is the paper's (and standard's recommended) adjustment
	// constant, 0.3.
	QAdjustC = 0.3
	// MaxQ caps the exponent per the standard.
	MaxQ = 15
)

// UplinkMicros converts a number of uplink bits to microseconds.
func UplinkMicros(bits float64) float64 { return bits * UplinkBitMicros }

// DownlinkMicros converts a number of downlink bits to microseconds.
func DownlinkMicros(bits float64) float64 { return bits * DownlinkBitMicros }

// TimeAccount accumulates air time split by direction; every scheme in
// the evaluation reports through one of these so that Fig. 10/14 compare
// like with like.
type TimeAccount struct {
	// UplinkBits counts tag→reader bit durations (including empty
	// listening slots, which cost the same air time).
	UplinkBits float64
	// DownlinkBits counts reader→tag command bits.
	DownlinkBits float64
	// TurnaroundCount counts link reversals.
	TurnaroundCount int
}

// AddUplink charges n uplink bit durations.
func (t *TimeAccount) AddUplink(n float64) { t.UplinkBits += n }

// AddDownlink charges n downlink command bits.
func (t *TimeAccount) AddDownlink(n float64) { t.DownlinkBits += n }

// AddTurnaround charges n link reversals.
func (t *TimeAccount) AddTurnaround(n int) { t.TurnaroundCount += n }

// Micros returns the total accounted air time in microseconds.
func (t *TimeAccount) Micros() float64 {
	return UplinkMicros(t.UplinkBits) +
		DownlinkMicros(t.DownlinkBits) +
		UplinkMicros(float64(t.TurnaroundCount*TurnaroundBits))
}

// Millis returns the total accounted air time in milliseconds.
func (t *TimeAccount) Millis() float64 { return t.Micros() / 1000 }
