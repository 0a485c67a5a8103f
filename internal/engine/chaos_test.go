package engine_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/faults"
	"repro/internal/engine/leaktest"
	"repro/internal/engine/replay"
	"repro/internal/prng"
	"repro/internal/scenario"
)

// chaosTrials caps per-spec trials so the chaos matrix stays fast; the
// fault schedule still sweeps every scenario shape.
const chaosTrials = 2

// chaosMaxSlots caps per-trial slots. A reconnecting client refeeds a
// broken trial from slot 1, so a trial only completes while expected
// faults per attempt stay below 1: the 600-slot scenarios would fault
// faster than they progress at any schedule dense enough to be worth
// running. Both passes share the cap, so digests stay comparable.
const chaosMaxSlots = 160

// chaosPass is one full sweep of every example scenario through a
// loopback daemon under a seeded fault schedule.
type chaosPass struct {
	digests map[string]uint64 // spec name -> outcome digest
	wrong   int
	retries int64
	panics  int64
	dials   uint64
	counts  [faults.NumKinds]int64
	snap    engine.StatsSnapshot
}

// runChaosPass replays the capped scenario set against a fresh daemon
// whose transport is wrapped, both directions, in a fault plan derived
// from seed. It returns the pass outcome; hard failures fail t.
func runChaosPass(t *testing.T, seed uint64, files []string) *chaosPass {
	t.Helper()

	plan := &faults.Plan{
		Seed: seed,
		// Sparse by design: with trials capped at chaosMaxSlots the
		// longest attempt moves ~330 frames (both directions); Deny 600
		// keeps expected faults per attempt near 0.5, so the refeed
		// converges with room to spare while every pass still injects.
		Deny:  600,
		Stall: 2500 * time.Millisecond,
	}
	// Timing faults (drop, stall) cost ~2s of wall clock each; keep
	// them rare relative to the cheap byte-level faults.
	plan.Weights[faults.Drop] = 1
	plan.Weights[faults.Delay] = 4
	plan.Weights[faults.Dup] = 2
	plan.Weights[faults.Truncate] = 2
	plan.Weights[faults.Corrupt] = 4
	plan.Weights[faults.Stall] = 1
	plan.Weights[faults.Kill] = 2

	m := engine.New(engine.Config{})
	srv := engine.NewServer(m, engine.ServerConfig{
		// Generous against decode and scheduling jitter (the chaos
		// matrix runs under -race), tight against injected stalls.
		IdleTimeout:  750 * time.Millisecond,
		ReadTimeout:  750 * time.Millisecond,
		WriteTimeout: 750 * time.Millisecond,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Server→client faults draw from a disjoint connection-ID space so
	// the two directions of one TCP conn fault independently.
	fln := &faults.Listener{Listener: ln, Plan: plan, Base: 1 << 32}
	go srv.Serve(fln)

	pass := &chaosPass{digests: make(map[string]uint64)}

	var panicsFired atomic.Int64
	engine.SetTestHookDecodePanic(func(sid uint64, slot int) {
		if prng.Mix3(seed^0x9e3779b97f4a7c15, sid, uint64(slot))%997 == 0 {
			panicsFired.Add(1)
			panic("chaos: injected decode panic")
		}
	})
	defer engine.SetTestHookDecodePanic(nil)

	var dialN atomic.Uint64
	cl := &replay.Client{
		Dial: func() (net.Conn, error) {
			nc, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return nil, err
			}
			return faults.WrapConn(nc, plan, dialN.Add(1)-1), nil
		},
		// Must exceed every benign latency and undercut every stall.
		IOTimeout:   2 * time.Second,
		MaxAttempts: 12,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  100 * time.Millisecond,
		Seed:        seed,
		OnRetry:     func(int, int, error) { atomic.AddInt64(&pass.retries, 1) },
	}

	for _, path := range files {
		spec, err := scenario.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		// Same cost gate as the conformance suite: warehouse-sized
		// specs belong to the nightly-scale CI job, and both chaos
		// passes must see the identical spec list for the digest
		// comparison to hold.
		if spec.TotalTags()*spec.Decode.MaxSlots > tier1DecodeBudget {
			continue
		}
		if spec.Trials > chaosTrials {
			spec.Trials = chaosTrials
		}
		if spec.Decode.MaxSlots > chaosMaxSlots {
			spec.Decode.MaxSlots = chaosMaxSlots
		}
		crc, err := spec.CRCKind()
		if err != nil {
			t.Fatal(err)
		}
		before := plan.CountsSnapshot()
		results, err := cl.RunScenario(spec)
		if err != nil {
			t.Fatalf("chaos replay %s (seed %d): %v", filepath.Base(path), seed, err)
		}

		h := fnv.New64a()
		for trial, tr := range results {
			pay := tr.Payloads(crc)
			for i, ok := range tr.Verified {
				if !ok {
					continue
				}
				if !pay[i].Equal(tr.Messages[i]) {
					pass.wrong++
					t.Errorf("%s trial %d tag %d: WRONG PAYLOAD under faults", filepath.Base(path), trial, i)
				}
			}
			fmt.Fprintf(h, "t%d|s%d|r%d|", trial, tr.SlotsUsed, tr.RowsRetired)
			for i := range tr.Verified {
				fmt.Fprintf(h, "%v%v", tr.Verified[i], tr.Retired[i])
				if tr.Verified[i] {
					fmt.Fprintf(h, "%s", pay[i].String())
				}
			}
		}
		pass.digests[spec.Name] = h.Sum64()

		after := plan.CountsSnapshot()
		var cells []string
		for k := int(faults.Drop); k < faults.NumKinds; k++ {
			cells = append(cells, fmt.Sprintf("%s=%d", faults.Kind(k), after[k]-before[k]))
		}
		fmt.Printf("CHAOS|seed=%d|spec=%s|trials=%d|digest=%016x|%s\n",
			seed, spec.Name, len(results), pass.digests[spec.Name], strings.Join(cells, "|"))
	}
	cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("chaos shutdown (seed %d): %v", seed, err)
	}
	pass.snap = m.Snapshot()
	pass.counts = plan.CountsSnapshot()
	pass.panics = panicsFired.Load()
	pass.dials = dialN.Load()

	// Ledger reconciliation: every session the daemon ever opened —
	// including half-fed ones orphaned by killed connections — must be
	// closed, with its pooled resources either recycled or (post-panic)
	// quarantined, never leaked.
	if pass.snap.ActiveSessions != 0 {
		t.Errorf("seed %d: %d sessions still active after shutdown", seed, pass.snap.ActiveSessions)
	}
	if pass.snap.SessionsOpened != pass.snap.SessionsClosed {
		t.Errorf("seed %d: session ledger unbalanced: opened %d, closed %d",
			seed, pass.snap.SessionsOpened, pass.snap.SessionsClosed)
	}
	if pass.snap.ResourcesInFlight != 0 {
		t.Errorf("seed %d: %d pooled resource sets leaked", seed, pass.snap.ResourcesInFlight)
	}
	if pass.snap.PanicsRecovered < pass.panics {
		t.Errorf("seed %d: hook panicked %d times but only %d recoveries counted",
			seed, pass.panics, pass.snap.PanicsRecovered)
	}
	if pass.panics == 0 && pass.snap.PanicsRecovered != 0 {
		t.Errorf("seed %d: %d recoveries counted with no injected panic", seed, pass.snap.PanicsRecovered)
	}
	return pass
}

// TestChaosConformance is the robustness capstone: every example
// scenario, replayed through loopback buzzd while a seeded fault plan
// drops, duplicates, truncates, corrupts, stalls and kills the
// transport in both directions and a hook injects decode panics. The
// bar: zero wrong payloads, zero leaked goroutines, zero leaked pool
// sessions, a reconciled counter ledger — and the same seed must
// produce the same per-scenario outcome digest at GOMAXPROCS 1 and 4.
func TestChaosConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix skipped in -short")
	}
	leaktest.Check(t)
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example scenarios found: %v", err)
	}

	seeds := []uint64{1}
	if env := os.Getenv("CHAOS_SEEDS"); env != "" {
		seeds = nil
		for _, f := range strings.Split(env, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
			if err != nil {
				t.Fatalf("bad CHAOS_SEEDS entry %q: %v", f, err)
			}
			seeds = append(seeds, v)
		}
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runtime.GOMAXPROCS(4)
			wide := runChaosPass(t, seed, files)
			runtime.GOMAXPROCS(1)
			narrow := runChaosPass(t, seed, files)
			runtime.GOMAXPROCS(prev)

			var injected int64
			for k := int(faults.Drop); k < faults.NumKinds; k++ {
				injected += wide.counts[k]
			}
			if injected == 0 {
				t.Errorf("seed %d injected no faults — chaos pass was vacuous; pick another seed", seed)
			}
			fmt.Printf("CHAOS|seed=%d|TOTAL|faults=%d|retries=%d|dials=%d|panics=%d|deadline_drops=%d|malformed=%d|busy=%d\n",
				seed, injected, wide.retries, wide.dials, wide.panics,
				wide.snap.DeadlineDrops, wide.snap.MalformedFrames, wide.snap.BusyRejected)

			for name, d := range wide.digests {
				if nd, ok := narrow.digests[name]; !ok || nd != d {
					t.Errorf("seed %d: %s outcome digest differs across GOMAXPROCS 4/1: %016x vs %016x",
						seed, name, d, nd)
				}
			}
		})
	}
}
