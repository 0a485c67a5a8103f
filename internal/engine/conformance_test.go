package engine_test

import (
	"context"
	"net"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/leaktest"
	"repro/internal/engine/replay"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// tier1DecodeBudget gates example specs out of the tier-1 suites by
// decode cost: roster × slot budget is the dominant term in a trial's
// wall time. Specs past the budget (the warehouse capacity spec is
// ~1.3M; every dock/conveyor spec is under 5k) are exercised by the
// nightly-scale warehouse CI job instead.
const tier1DecodeBudget = 100_000

// skipHeavySpec skips a spec sized for the warehouse-scale CI job
// rather than the tier-1 suite.
func skipHeavySpec(t *testing.T, spec scenario.Spec) {
	t.Helper()
	if cost := spec.TotalTags() * spec.Decode.MaxSlots; cost > tier1DecodeBudget {
		t.Skipf("decode cost %d (roster %d × max_slots %d) exceeds tier-1 budget %d; covered by the warehouse-scale job",
			cost, spec.TotalTags(), spec.Decode.MaxSlots, tier1DecodeBudget)
	}
}

// TestLoopbackConformance is the engine's keystone golden: every
// example scenario, replayed through a real buzzd server over a
// loopback socket, must produce payload decisions byte-identical to the
// batch simulator at the same seed. The daemon sees only wire frames —
// the client draws messages, channels and noise itself — so this pins
// the whole chain: trial stream replication, wire codec, server
// dispatch, session manager, and the shared ratedapt.Stream core.
func TestLoopbackConformance(t *testing.T) {
	defer leaktest.Check(t)()
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example scenarios found: %v", err)
	}

	m := engine.New(engine.Config{})
	srv := engine.NewServer(m, engine.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			spec, err := scenario.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			skipHeavySpec(t, spec)
			crc, err := spec.CRCKind()
			if err != nil {
				t.Fatal(err)
			}

			batch, err := sim.Run(spec, sim.WithTrialDetail())
			if err != nil {
				t.Fatalf("batch run: %v", err)
			}

			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if len(batch.Trials) != spec.Trials {
				t.Fatalf("batch ran %d trials, spec has %d", len(batch.Trials), spec.Trials)
			}
			for trial := range batch.Trials {
				st, err := replay.RunTrial(conn, spec, trial)
				if err != nil {
					t.Fatalf("loopback replay, trial %d: %v", trial, err)
				}
				bt := &batch.Trials[trial]
				if !reflect.DeepEqual(st.Verified, bt.Verified) {
					t.Errorf("trial %d: verified flags diverge\n wire  %v\n batch %v", trial, st.Verified, bt.Verified)
				}
				if got := st.Payloads(crc); !reflect.DeepEqual(got, bt.Payloads) {
					t.Errorf("trial %d: payload decisions diverge\n wire  %v\n batch %v", trial, got, bt.Payloads)
				}
				if !reflect.DeepEqual(st.Retired, bt.Retired) {
					t.Errorf("trial %d: retired flags diverge\n wire  %v\n batch %v", trial, st.Retired, bt.Retired)
				}
				if st.SlotsUsed != bt.SlotsUsed {
					t.Errorf("trial %d: slots used %d, batch %d", trial, st.SlotsUsed, bt.SlotsUsed)
				}
				if st.RowsRetired != bt.RowsRetired {
					t.Errorf("trial %d: rows retired %d, batch %d", trial, st.RowsRetired, bt.RowsRetired)
				}
				if int(st.Summary.SlotsUsed) != bt.SlotsUsed {
					t.Errorf("trial %d: closing summary says %d slots, trial used %d", trial, st.Summary.SlotsUsed, bt.SlotsUsed)
				}
			}
		})
	}

	snap := m.Snapshot()
	if snap.ActiveSessions != 0 {
		t.Errorf("%d sessions still active after all replays closed", snap.ActiveSessions)
	}
	if snap.SessionsOpened == 0 || snap.SessionsOpened != snap.SessionsClosed {
		t.Errorf("session ledger unbalanced: opened %d, closed %d", snap.SessionsOpened, snap.SessionsClosed)
	}
	if f := snap.BusyRejected + snap.DeadlineDrops + snap.MalformedFrames + snap.PanicsRecovered; f != 0 {
		t.Errorf("%d failures counted during lock-step replay: %+v", f, snap)
	}
}
