package engine_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/leaktest"
	"repro/internal/prng"
	"repro/internal/ratedapt"
	"repro/internal/scratch"
)

// streamCfg builds a minimal one-tag streaming config.
func streamCfg(seed uint64) ratedapt.StreamConfig {
	return ratedapt.StreamConfig{
		MessageBits: 8,
		MaxSlots:    64,
		Seeds:       []uint64{seed},
		Taps:        []complex128{1},
		DecodeSrc:   prng.NewSource(seed),
	}
}

// feedSlots drives n noise slots through a live session.
func feedSlots(t *testing.T, ls *engine.LiveSession, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		obs := make([]complex128, ls.FrameLen())
		if _, err := ls.Feed(ratedapt.SlotEvents{}, obs); err != nil {
			t.Fatalf("feed slot %d: %v", i, err)
		}
	}
}

func TestStreamingSessionLifecycle(t *testing.T) {
	defer leaktest.Check(t)()
	m := engine.New(engine.Config{})

	ls, err := m.Open(streamCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		out, err := ls.Feed(ratedapt.SlotEvents{}, make([]complex128, ls.FrameLen()))
		if err != nil || out.Step.Slot != i+1 {
			t.Fatalf("feed %d: slot %d, %v; want the outcome of slot %d", i, out.Step.Slot, err, i+1)
		}
	}
	sum := ls.Close()
	if sum.SlotsUsed != 5 || sum.Joined != 1 {
		t.Fatalf("closing summary %+v, want 5 slots, 1 tag", sum)
	}
	if again := ls.Close(); again != (engine.SessionSummary{}) {
		t.Fatalf("repeated Close returned %+v, want the zero summary", again)
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	snap := m.Snapshot()
	if snap.SessionsOpened != 1 || snap.SessionsClosed != 1 || snap.ActiveSessions != 0 {
		t.Fatalf("ledger: %+v", snap)
	}
	if snap.SlotsIngested != 5 {
		t.Fatalf("ingested %d slots, want 5", snap.SlotsIngested)
	}
}

// TestFailedSessionDecodesNothing pins a failed slot's contract:
// Feed returns the failure, and every later Feed returns the same error
// without decoding; the poisoned session's resources are discarded at
// Close and its admission slot freed.
func TestFailedSessionDecodesNothing(t *testing.T) {
	defer leaktest.Check(t)()
	m := engine.New(engine.Config{MaxSessions: 1})
	ls, err := m.Open(streamCfg(9))
	if err != nil {
		t.Fatal(err)
	}
	engine.SetTestHookDecodePanic(func(sid uint64, slot int) {
		if sid == ls.ID && slot == 2 {
			panic("test: injected decode panic")
		}
	})
	defer engine.SetTestHookDecodePanic(nil)
	feedSlots(t, ls, 1)
	_, first := ls.Feed(ratedapt.SlotEvents{}, make([]complex128, ls.FrameLen()))
	if !errors.Is(first, engine.ErrDecodePanic) {
		t.Fatalf("slot 2 returned %v, want ErrDecodePanic", first)
	}
	for i := 0; i < 3; i++ {
		if _, err := ls.Feed(ratedapt.SlotEvents{}, make([]complex128, ls.FrameLen())); err != first {
			t.Fatalf("feed after the failure returned %v, want %v", err, first)
		}
	}
	if s := m.Snapshot(); s.SlotsIngested != 1 || s.PanicsRecovered != 1 {
		t.Fatalf("%d slots ingested, %d panics recovered; want 1 and 1", s.SlotsIngested, s.PanicsRecovered)
	}
	if sum := ls.Close(); sum.SlotsUsed != 1 {
		t.Fatalf("closing summary %+v, want 1 slot used", sum)
	}
	if got := m.Snapshot().ResourcesInFlight; got != 0 {
		t.Fatalf("%d resources in flight after Close, want 0", got)
	}
	ls2, err := m.Open(streamCfg(10))
	if err != nil {
		t.Fatalf("open after the failed session closed: %v", err)
	}
	ls2.Close()
}

func TestDrainRefusesNewSessions(t *testing.T) {
	defer leaktest.Check(t)()
	m := engine.New(engine.Config{})

	ls, err := m.Open(streamCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("drain with a live session: %v, want deadline exceeded", err)
	}
	if _, err := m.Open(streamCfg(4)); !errors.Is(err, engine.ErrDraining) {
		t.Fatalf("open on a draining manager: %v, want ErrDraining", err)
	}
	ls.Close()
	if err := m.Drain(context.Background()); err != nil {
		t.Fatalf("drain after close: %v", err)
	}
}

func TestSessionCap(t *testing.T) {
	defer leaktest.Check(t)()
	m := engine.New(engine.Config{MaxSessions: 1})

	ls, err := m.Open(streamCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open(streamCfg(2)); !errors.Is(err, engine.ErrBusy) {
		t.Fatalf("second open past MaxSessions=1: %v, want ErrBusy", err)
	}
	if got := m.Snapshot().BusyRejected; got != 1 {
		t.Fatalf("busy-rejected counter %d, want 1", got)
	}
	ls.Close()
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	ls2, err := m.Open(streamCfg(3))
	if err == nil {
		// Drain left the manager refusing sessions; a fresh manager is
		// the documented path after drain, so this open must fail.
		ls2.Close()
		t.Fatal("open succeeded after drain")
	}
}

func TestOpenRejectsOwnedResources(t *testing.T) {
	defer leaktest.Check(t)()
	m := engine.New(engine.Config{})
	cfg := streamCfg(5)
	cfg.Scratch = scratch.New()
	if _, err := m.Open(cfg); err == nil {
		t.Fatal("open accepted a caller-supplied Scratch")
	}
	cfg = streamCfg(5)
	cfg.Parallelism = 2
	if _, err := m.Open(cfg); err == nil {
		t.Fatal("open accepted Parallelism 2")
	}
}

func TestRunBatchCountsTrials(t *testing.T) {
	defer leaktest.Check(t)()
	m := engine.New(engine.Config{})
	var n sync.Map
	err := m.RunBatch(9, func(trial int, res *engine.Resources) error {
		if res.Scratch == nil || res.Session == nil {
			t.Errorf("trial %d: incomplete resources %+v", trial, res)
		}
		n.Store(trial, true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	n.Range(func(any, any) bool { count++; return true })
	if count != 9 {
		t.Fatalf("ran %d distinct trials, want 9", count)
	}
	if got := m.Snapshot().TrialsRun; got != 9 {
		t.Fatalf("trial counter %d, want 9", got)
	}
}
