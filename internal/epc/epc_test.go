package epc

import (
	"math"
	"testing"
)

func TestBitDurations(t *testing.T) {
	if math.Abs(UplinkBitMicros-12.5) > 1e-12 {
		t.Fatalf("uplink bit = %v µs, want 12.5", UplinkBitMicros)
	}
	if math.Abs(DownlinkBitMicros-1e6/27000) > 1e-12 {
		t.Fatalf("downlink bit = %v µs", DownlinkBitMicros)
	}
}

func TestTimeAccountAccumulates(t *testing.T) {
	var a TimeAccount
	a.AddUplink(80) // 80 bits at 12.5 µs = 1 ms
	if math.Abs(a.Millis()-1.0) > 1e-9 {
		t.Fatalf("80 uplink bits = %v ms, want 1", a.Millis())
	}
	a.AddDownlink(27) // 27 bits at 27 kbps = 1 ms
	if math.Abs(a.Millis()-2.0) > 1e-9 {
		t.Fatalf("plus 27 downlink bits = %v ms, want 2", a.Millis())
	}
	a.AddTurnaround(2) // 2 × 4 uplink-bit durations = 100 µs
	if math.Abs(a.Micros()-2100) > 1e-9 {
		t.Fatalf("plus 2 turnarounds = %v µs, want 2100", a.Micros())
	}
}

func TestDownlinkSlowerThanUplink(t *testing.T) {
	// The asymmetry that makes per-tag ACKs expensive (§8.2's 75%
	// overhead estimate) and Buzz's single stop signal cheap.
	if DownlinkBitMicros <= UplinkBitMicros {
		t.Fatal("downlink must be slower than uplink in the paper's setup")
	}
}
