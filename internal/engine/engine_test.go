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
		if err := ls.Feed(ratedapt.SlotEvents{}, obs); err != nil {
			t.Fatalf("feed slot %d: %v", i, err)
		}
	}
}

func TestStreamingSessionLifecycle(t *testing.T) {
	defer leaktest.Check(t)()
	m := engine.New(engine.Config{Workers: 2})
	defer m.Close()

	var mu sync.Mutex
	var events []engine.Event
	sink := func(ev engine.Event) bool {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
		return true
	}
	ls, err := m.Open(streamCfg(7), sink)
	if err != nil {
		t.Fatal(err)
	}
	feedSlots(t, ls, 5)
	ls.Close()
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(events) != 6 {
		t.Fatalf("got %d events, want 5 decisions + 1 closed", len(events))
	}
	for i, ev := range events[:5] {
		if ev.Kind != engine.EventDecisions || ev.Step.Slot != i+1 {
			t.Fatalf("event %d: kind %d slot %d, want decisions for slot %d", i, ev.Kind, ev.Step.Slot, i+1)
		}
	}
	last := events[5]
	if last.Kind != engine.EventClosed || last.Summary.SlotsUsed != 5 || last.Summary.Joined != 1 {
		t.Fatalf("final event %+v, want closed summary with 5 slots, 1 tag", last)
	}

	snap := m.Snapshot()
	if snap.SessionsOpened != 1 || snap.SessionsClosed != 1 || snap.ActiveSessions != 0 {
		t.Fatalf("ledger: %+v", snap)
	}
	if snap.SlotsIngested != 5 {
		t.Fatalf("ingested %d slots, want 5", snap.SlotsIngested)
	}
}

func TestSlowSinkShedsSession(t *testing.T) {
	defer leaktest.Check(t)()
	m := engine.New(engine.Config{Workers: 1})
	defer m.Close()

	ls, err := m.Open(streamCfg(9), func(engine.Event) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	// The first slot's event hits the refusing sink and sheds the
	// session; subsequent feeds must surface ErrShed quickly.
	obs := make([]complex128, ls.FrameLen())
	if err := ls.Feed(ratedapt.SlotEvents{}, obs); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := ls.Feed(ratedapt.SlotEvents{}, make([]complex128, ls.FrameLen()))
		if err == engine.ErrShed {
			break
		}
		if err != nil {
			t.Fatalf("unexpected feed error: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("session never shed")
		}
	}
	ls.Close()
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if shed := m.Snapshot().SessionsShed; shed != 1 {
		t.Fatalf("shed counter %d, want 1", shed)
	}
}

func TestDrainRefusesNewSessions(t *testing.T) {
	defer leaktest.Check(t)()
	m := engine.New(engine.Config{Workers: 1})
	defer m.Close()

	ls, err := m.Open(streamCfg(3), func(engine.Event) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("drain with a live session: %v, want deadline exceeded", err)
	}
	if _, err := m.Open(streamCfg(4), func(engine.Event) bool { return true }); !errors.Is(err, engine.ErrDraining) {
		t.Fatalf("open on a draining manager: %v, want ErrDraining", err)
	}
	ls.Close()
	if err := m.Drain(context.Background()); err != nil {
		t.Fatalf("drain after close: %v", err)
	}
}

func TestSessionCap(t *testing.T) {
	defer leaktest.Check(t)()
	m := engine.New(engine.Config{Workers: 1, MaxSessions: 1})
	defer m.Close()

	ls, err := m.Open(streamCfg(1), func(engine.Event) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open(streamCfg(2), func(engine.Event) bool { return true }); !errors.Is(err, engine.ErrBusy) {
		t.Fatalf("second open past MaxSessions=1: %v, want ErrBusy", err)
	}
	if got := m.Snapshot().BusyRejected; got != 1 {
		t.Fatalf("busy-rejected counter %d, want 1", got)
	}
	ls.Close()
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	ls2, err := m.Open(streamCfg(3), func(engine.Event) bool { return true })
	if err == nil {
		// Drain left the manager refusing sessions; a fresh manager is
		// the documented path after drain, so this open must fail.
		ls2.Close()
		t.Fatal("open succeeded after drain")
	}
}

func TestOpenRejectsOwnedResources(t *testing.T) {
	defer leaktest.Check(t)()
	m := engine.New(engine.Config{Workers: 1})
	defer m.Close()
	cfg := streamCfg(5)
	cfg.Scratch = scratch.New()
	if _, err := m.Open(cfg, func(engine.Event) bool { return true }); err == nil {
		t.Fatal("open accepted a caller-supplied Scratch")
	}
	cfg = streamCfg(5)
	cfg.Parallelism = 2
	if _, err := m.Open(cfg, func(engine.Event) bool { return true }); err == nil {
		t.Fatal("open accepted Parallelism 2")
	}
}

func TestRunBatchCountsTrials(t *testing.T) {
	defer leaktest.Check(t)()
	m := engine.New(engine.Config{Workers: 2})
	defer m.Close()
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
