// Package crc implements the two cyclic redundancy checks used by EPC
// Gen-2 backscatter systems and therefore by Buzz:
//
//   - CRC-5/EPC (polynomial x^5 + x^3 + 1, preset 01001b), which protects
//     short uplink frames — the paper's data-phase experiments attach a
//     5-bit CRC to each 32-bit message (§9).
//   - CRC-16/CCITT (polynomial x^16 + x^12 + x^5 + 1, preset 0xFFFF,
//     complemented output), which protects the longer 96-bit EPC payloads
//     referenced in §8.2.
//
// Both are exposed at bit granularity because backscatter messages are
// bit strings, not byte streams: Buzz's rateless decoder recovers one bit
// position at a time across all tags and then checks each tag's message
// as a raw bit vector.
package crc

// Poly5 is the CRC-5/EPC generator polynomial x^5 + x^3 + 1, written with
// the leading term implicit (0b01001 = coefficients for x^3 and x^0).
const Poly5 = 0x09

// Preset5 is the CRC-5/EPC initial register value, 01001b per the EPC
// Gen-2 specification.
const Preset5 = 0x09

// Width5 is the number of CRC-5 bits.
const Width5 = 5

// Poly16 is the CRC-16/CCITT generator polynomial x^16 + x^12 + x^5 + 1.
const Poly16 = 0x1021

// Preset16 is the CRC-16/CCITT initial register value per EPC Gen-2.
const Preset16 = 0xFFFF

// Width16 is the number of CRC-16 bits.
const Width16 = 16

// Checksum5 computes the CRC-5/EPC over the given message bits, most
// significant bit first. The returned value occupies the low 5 bits.
func Checksum5(bits []bool) uint8 {
	reg := uint8(Preset5)
	for _, b := range bits {
		in := uint8(0)
		if b {
			in = 1
		}
		msb := (reg >> 4) & 1
		reg = (reg << 1) & 0x1F
		if msb^in == 1 {
			reg ^= Poly5
		}
	}
	return reg & 0x1F
}

// Append5 returns the message followed by its 5 CRC bits (MSB first). A
// receiver can validate the result with Check5.
func Append5(bits []bool) []bool {
	c := Checksum5(bits)
	out := make([]bool, 0, len(bits)+Width5)
	out = append(out, bits...)
	for i := Width5 - 1; i >= 0; i-- {
		out = append(out, (c>>uint(i))&1 == 1)
	}
	return out
}

// Check5 reports whether the final 5 bits of frame are the correct
// CRC-5/EPC of the preceding bits. Frames shorter than the CRC never
// verify.
func Check5(frame []bool) bool {
	if len(frame) < Width5 {
		return false
	}
	payload := frame[:len(frame)-Width5]
	want := Checksum5(payload)
	got := uint8(0)
	for _, b := range frame[len(frame)-Width5:] {
		got <<= 1
		if b {
			got |= 1
		}
	}
	return got == want
}

// Checksum16 computes the CRC-16/CCITT (EPC Gen-2 variant: preset 0xFFFF,
// ones-complemented result) over the given message bits, MSB first.
func Checksum16(bits []bool) uint16 {
	reg := uint16(Preset16)
	for _, b := range bits {
		in := uint16(0)
		if b {
			in = 1
		}
		msb := (reg >> 15) & 1
		reg <<= 1
		if msb^in == 1 {
			reg ^= Poly16
		}
	}
	return ^reg
}

// Append16 returns the message followed by its 16 CRC bits (MSB first).
func Append16(bits []bool) []bool {
	c := Checksum16(bits)
	out := make([]bool, 0, len(bits)+Width16)
	out = append(out, bits...)
	for i := Width16 - 1; i >= 0; i-- {
		out = append(out, (c>>uint(i))&1 == 1)
	}
	return out
}

// Check16 reports whether the final 16 bits of frame are the correct
// CRC-16/CCITT of the preceding bits.
func Check16(frame []bool) bool {
	if len(frame) < Width16 {
		return false
	}
	payload := frame[:len(frame)-Width16]
	want := Checksum16(payload)
	got := uint16(0)
	for _, b := range frame[len(frame)-Width16:] {
		got <<= 1
		if b {
			got |= 1
		}
	}
	return got == want
}
