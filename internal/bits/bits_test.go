package bits

import (
	"testing"

	"repro/internal/prng"
)

func TestCloneIndependent(t *testing.T) {
	v := Vector{true, false, true}
	w := v.Clone()
	w[0] = false
	if !v[0] {
		t.Fatal("Clone aliases the original")
	}
}

func TestEqual(t *testing.T) {
	a := Vector{true, false}
	if !a.Equal(Vector{true, false}) {
		t.Fatal("equal vectors reported unequal")
	}
	if a.Equal(Vector{true}) || a.Equal(Vector{true, true}) {
		t.Fatal("unequal vectors reported equal")
	}
}

func TestHammingDistanceProperties(t *testing.T) {
	src := prng.NewSource(1)
	for trial := 0; trial < 200; trial++ {
		n := src.IntN(40) + 1
		a, b := Random(src, n), Random(src, n)
		dab := a.HammingDistance(b)
		dba := b.HammingDistance(a)
		if dab != dba {
			t.Fatal("Hamming distance not symmetric")
		}
		if a.HammingDistance(a) != 0 {
			t.Fatal("distance to self nonzero")
		}
		if dab < 0 || dab > n {
			t.Fatalf("distance %d out of [0,%d]", dab, n)
		}
	}
}

func TestHammingDistanceLengthMismatch(t *testing.T) {
	a := Vector{true, true, true}
	b := Vector{true}
	if got := a.HammingDistance(b); got != 2 {
		t.Fatalf("length mismatch distance = %d, want 2", got)
	}
}

func TestMessageFrameVerify(t *testing.T) {
	src := prng.NewSource(3)
	for _, kind := range []CRCKind{CRC5, CRC16} {
		for trial := 0; trial < 100; trial++ {
			m := Message{Payload: Random(src, 32), Kind: kind}
			frame := m.Frame()
			if want := len(m.Payload) + kind.Width(); len(frame) != want {
				t.Fatalf("%v: frame length %d, want %d", kind, len(frame), want)
			}
			if !Verify(frame, kind) {
				t.Fatalf("%v: valid frame failed verification", kind)
			}
			if !PayloadOf(frame, kind).Equal(m.Payload) {
				t.Fatalf("%v: payload did not round trip", kind)
			}
		}
	}
}

func TestMessageCorruptionDetected(t *testing.T) {
	src := prng.NewSource(4)
	m := Message{Payload: Random(src, 32), Kind: CRC5}
	frame := m.Frame()
	for i := range frame {
		frame[i] = !frame[i]
		if Verify(frame, CRC5) {
			t.Errorf("bit flip at %d passed CRC", i)
		}
		frame[i] = !frame[i]
	}
}

func TestMatrixAppendRow(t *testing.T) {
	m := NewMatrixBacked(3, nil)
	m.AppendRow(Vector{true, false, true})
	m.AppendRow(Vector{false, true, false})
	if m.Rows != 2 {
		t.Fatalf("rows = %d", m.Rows)
	}
	if !m.At(0, 0) || m.At(1, 0) || !m.At(1, 1) {
		t.Fatal("appended rows misplaced")
	}
}

func TestMatrixAppendRowPanicsOnWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong row width")
		}
	}()
	NewMatrixBacked(3, nil).AppendRow(Vector{true})
}

func TestCRCKindWidths(t *testing.T) {
	if CRC5.Width() != 5 || CRC16.Width() != 16 {
		t.Fatal("CRC widths wrong")
	}
	if CRC5.String() != "CRC-5" || CRC16.String() != "CRC-16" {
		t.Fatal("CRC names wrong")
	}
}
