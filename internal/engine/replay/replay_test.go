package replay_test

import (
	"context"
	"errors"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/leaktest"
	"repro/internal/engine/replay"
	"repro/internal/prng"
	"repro/internal/ratedapt"
	"repro/internal/scenario"
)

// loadSpec fetches an example scenario trimmed to a quick single trial.
func loadSpec(t *testing.T) scenario.Spec {
	t.Helper()
	spec, err := scenario.Load("../../../examples/scenarios/block-fading.json")
	if err != nil {
		t.Fatal(err)
	}
	spec.Trials = 1
	return spec
}

// startServer spins up a loopback daemon and returns its address plus a
// teardown that drains it.
func startServer(t *testing.T, mcfg engine.Config, scfg engine.ServerConfig) (*engine.SessionManager, string) {
	t.Helper()
	m := engine.New(mcfg)
	srv := engine.NewServer(m, scfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return m, ln.Addr().String()
}

// killAfter is a net.Conn that dies (from the peer's point of view)
// after a fixed number of writes — a deterministic mid-trial crash.
type killAfter struct {
	net.Conn
	left int32
}

func (k *killAfter) Write(p []byte) (int, error) {
	if atomic.AddInt32(&k.left, -1) < 0 {
		k.Conn.Close()
		return 0, net.ErrClosed
	}
	return k.Conn.Write(p)
}

func TestClientBackoffDeterministicAndBounded(t *testing.T) {
	mk := func() *replay.Client {
		return &replay.Client{Seed: 99, BackoffBase: 10 * time.Millisecond, BackoffMax: 80 * time.Millisecond}
	}
	a, b := mk(), mk()
	for trial := 0; trial < 3; trial++ {
		for attempt := 1; attempt <= 10; attempt++ {
			da := a.BackoffFor(trial, attempt)
			db := b.BackoffFor(trial, attempt)
			if da != db {
				t.Fatalf("same-seed backoff diverged at (%d,%d): %v vs %v", trial, attempt, da, db)
			}
			if da <= 0 || da > 80*time.Millisecond {
				t.Fatalf("backoff (%d,%d) = %v outside (0, 80ms]", trial, attempt, da)
			}
		}
	}
	c := &replay.Client{Seed: 100, BackoffBase: 10 * time.Millisecond, BackoffMax: 80 * time.Millisecond}
	diverged := false
	for attempt := 1; attempt <= 10 && !diverged; attempt++ {
		diverged = a.BackoffFor(0, attempt) != c.BackoffFor(0, attempt)
	}
	if !diverged {
		t.Fatal("different seeds produced identical jitter")
	}
}

func TestClientReconnectMidTrial(t *testing.T) {
	leaktest.Check(t)
	spec := loadSpec(t)
	_, addr := startServer(t, engine.Config{}, engine.ServerConfig{})

	// Ground truth: the same trial over an unbroken connection.
	direct, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := replay.RunTrial(direct, spec, 0)
	direct.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Chaos run: the first two connections die mid-trial (after 3 and 7
	// frame writes), the third survives. The client must reconnect,
	// re-open, refeed, and land on the identical result.
	var dials int32
	cl := &replay.Client{
		Dial: func() (net.Conn, error) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			switch atomic.AddInt32(&dials, 1) {
			case 1:
				return &killAfter{Conn: nc, left: 3}, nil
			case 2:
				return &killAfter{Conn: nc, left: 7}, nil
			default:
				return nc, nil
			}
		},
		IOTimeout:   5 * time.Second,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		Seed:        7,
	}
	defer cl.Close()
	var retries int32
	cl.OnRetry = func(trial, attempt int, err error) { atomic.AddInt32(&retries, 1) }

	got, err := cl.RunTrial(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&dials) != 3 {
		t.Fatalf("client dialed %d times, want 3", dials)
	}
	if atomic.LoadInt32(&retries) != 2 {
		t.Fatalf("OnRetry fired %d times, want 2", retries)
	}
	if !reflect.DeepEqual(got.Verified, want.Verified) {
		t.Errorf("verified flags diverge after reconnects\n reconnect %v\n direct    %v", got.Verified, want.Verified)
	}
	crc, _ := spec.CRCKind()
	if !reflect.DeepEqual(got.Payloads(crc), want.Payloads(crc)) {
		t.Errorf("payloads diverge after reconnects")
	}
	if !reflect.DeepEqual(got.Retired, want.Retired) {
		t.Errorf("retired flags diverge after reconnects\n reconnect %v\n direct    %v", got.Retired, want.Retired)
	}
	if got.SlotsUsed != want.SlotsUsed || got.RowsRetired != want.RowsRetired {
		t.Errorf("accounting diverges: slots %d/%d rows %d/%d",
			got.SlotsUsed, want.SlotsUsed, got.RowsRetired, want.RowsRetired)
	}
	if got.Summary.SlotsUsed != want.Summary.SlotsUsed {
		t.Errorf("summary slots %d, want %d", got.Summary.SlotsUsed, want.Summary.SlotsUsed)
	}
}

func TestClientRetriesBusyDaemon(t *testing.T) {
	leaktest.Check(t)
	spec := loadSpec(t)
	m, addr := startServer(t, engine.Config{MaxSessions: 1}, engine.ServerConfig{})

	// Occupy the only session slot directly on the manager, then free it
	// shortly after: the client's first Open gets Busy, a retry wins.
	hold, err := m.Open(ratedapt.StreamConfig{
		MessageBits: 8,
		MaxSlots:    16,
		Seeds:       []uint64{1},
		Taps:        []complex128{1},
		DecodeSrc:   prng.NewSource(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	release := time.AfterFunc(300*time.Millisecond, func() { hold.Close() })
	defer release.Stop()

	cl := &replay.Client{
		Dial:        func() (net.Conn, error) { return net.Dial("tcp", addr) },
		IOTimeout:   5 * time.Second,
		BackoffBase: 100 * time.Millisecond,
		BackoffMax:  400 * time.Millisecond,
		MaxAttempts: 10,
		Seed:        3,
	}
	defer cl.Close()
	if _, err := cl.RunTrial(spec, 0); err != nil {
		t.Fatalf("client never got past Busy: %v", err)
	}
	if m.Snapshot().BusyRejected == 0 {
		t.Error("daemon never counted a busy rejection")
	}
}

func TestClientGivesUp(t *testing.T) {
	leaktest.Check(t)
	spec := loadSpec(t)
	dialErr := errors.New("no route to daemon")
	cl := &replay.Client{
		Dial:        func() (net.Conn, error) { return nil, dialErr },
		MaxAttempts: 3,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	}
	_, err := cl.RunTrial(spec, 0)
	if !errors.Is(err, dialErr) {
		t.Fatalf("error %v does not wrap the dial failure", err)
	}
}
