// Package bits provides bit-vector and message-framing utilities shared
// by the PHY, the Buzz encoder/decoder and the baseline schemes.
//
// Backscatter payloads are short bit strings (tens of bits), and Buzz's
// decoder operates column-wise across the j-th bit of every tag's message
// (§6c of the paper), so the natural representation here is []bool rather
// than packed bytes: clarity wins over density at these sizes, and the
// belief-propagation inner loop indexes single bits constantly.
package bits

import (
	"fmt"
	"strings"

	"repro/internal/crc"
	"repro/internal/prng"
)

// Vector is a sequence of bits, most significant (first transmitted)
// first.
type Vector []bool

// Index returns 1 for a set bit and 0 for a clear one, for indexing a
// two-entry table or counting set bits without a branch: the compiler
// turns the select into a flag move.
func Index(b bool) int {
	var x int
	if b {
		x = 1
	}
	return x
}

// Random returns a vector of n fair random bits drawn from src.
func Random(src *prng.Source, n int) Vector {
	out := make(Vector, n)
	RandomInto(src, out)
	return out
}

// RandomInto fills v with fair random bits drawn from src. It consumes
// exactly len(v) draws — the same stream Random consumes — so the two are
// interchangeable without perturbing downstream randomness; the decode
// hot path uses it to refill scratch buffers without allocating.
func RandomInto(src *prng.Source, v Vector) {
	for i := range v {
		v[i] = src.Bool()
	}
}

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Equal reports whether two vectors have identical length and bits.
func (v Vector) Equal(w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// HammingDistance counts positions at which v and w differ. Vectors of
// different lengths additionally count the length difference as errors,
// matching how a receiver would score a truncated message.
func (v Vector) HammingDistance(w Vector) int {
	short, long := v, w
	if len(short) > len(long) {
		short, long = long, short
	}
	d := len(long) - len(short)
	for i := range short {
		if short[i] != long[i] {
			d++
		}
	}
	return d
}

// String renders the vector as a 0/1 string for logs and goldens.
func (v Vector) String() string {
	var sb strings.Builder
	sb.Grow(len(v))
	for _, b := range v {
		if b {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// CRCKind selects the checksum protecting a Message.
type CRCKind int

const (
	// CRC5 is the 5-bit EPC checksum used on the paper's 32-bit
	// data-phase messages (§9).
	CRC5 CRCKind = iota
	// CRC16 is the 16-bit checksum used on 96-bit EPC payloads (§8.2).
	CRC16
)

// Width returns the number of checksum bits for the kind.
func (k CRCKind) Width() int {
	if k == CRC16 {
		return crc.Width16
	}
	return crc.Width5
}

// String names the kind.
func (k CRCKind) String() string {
	if k == CRC16 {
		return "CRC-16"
	}
	return "CRC-5"
}

// Message is a payload plus its checksum, as transmitted on the air.
type Message struct {
	// Payload is the application data (e.g. a 32-bit sensor reading).
	Payload Vector
	// Kind selects which CRC protects the payload.
	Kind CRCKind
}

// Frame returns the on-air frame: payload followed by CRC bits.
func (m Message) Frame() Vector {
	if m.Kind == CRC16 {
		return Vector(crc.Append16(m.Payload))
	}
	return Vector(crc.Append5(m.Payload))
}

// Verify reports whether frame is a CRC-valid frame for kind.
func Verify(frame Vector, kind CRCKind) bool {
	if kind == CRC16 {
		return crc.Check16(frame)
	}
	return crc.Check5(frame)
}

// PayloadOf strips the checksum bits from a verified frame. Callers must
// have checked Verify first; PayloadOf does not re-validate.
func PayloadOf(frame Vector, kind CRCKind) Vector {
	w := kind.Width()
	if len(frame) < w {
		return nil
	}
	return frame[:len(frame)-w].Clone()
}

// Matrix is a dense binary matrix stored row-major. Rows correspond to
// time slots and columns to tags in both A (identification) and D (data
// phase) of the paper.
type Matrix struct {
	Rows, Cols int
	data       []bool
}

// NewMatrixBacked returns an empty matrix with the given column count
// whose row storage reuses buf's backing array (its length is reset to
// zero). AppendRow stays allocation-free until cap(buf) is exhausted;
// past it the matrix grows onto the heap as usual. The rateless decode
// loop backs D with a scratch buffer sized for MaxSlots rows.
func NewMatrixBacked(cols int, buf []bool) *Matrix {
	return &Matrix{Cols: cols, data: buf[:0]}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) bool {
	return m.data[r*m.Cols+c]
}

// AppendRow grows the matrix by one row with the given bits. It panics if
// the row length does not match Cols. The data-phase matrix D grows one
// row per time slot as the rateless protocol runs.
func (m *Matrix) AppendRow(row Vector) {
	if len(row) != m.Cols {
		panic(fmt.Sprintf("bits: AppendRow length %d != Cols %d", len(row), m.Cols))
	}
	m.data = append(m.data, row...)
	m.Rows++
}
