// Command buzzd is the streaming decode daemon: many reader front ends
// stream collision slots at it over the wire protocol
// (internal/engine/wire) and get payload decisions back, all sessions
// decoding through the same session-manager engine the batch simulator
// runs on — the goldens pin that a streamed session and a batch trial
// at the same seed decide identically.
//
// Usage:
//
//	buzzd [-listen :4117] [-unix /run/buzzd.sock] [-http :8117]
//	      [-max-sessions N] [-drain-timeout 30s]
//	      [-idle-timeout 0] [-read-timeout 0] [-write-timeout 0]
//	      [-malformed-budget 3] [-cpuprofile buzzd.prof]
//
// The daemon serves the binary protocol on TCP (-listen) and/or a unix
// socket (-unix), and introspection over HTTP (-http): GET /statsz for
// the live counters as JSON, GET /healthz for liveness (503 while
// draining), and /debug/vars (expvar). A connection is one goroutine
// that reads, decodes and replies one slot at a time: separate
// connections decode in parallel, sessions sharing one connection in
// turn. On SIGINT/SIGTERM it stops accepting, lets live sessions finish
// for up to -drain-timeout, then force-closes what remains; a clean
// drain exits 0.
//
// The failure-model knobs: -idle-timeout drops a connection that starts
// no frame in time, -read-timeout one that stalls mid-frame,
// -write-timeout one that stops reading replies (the one slow-reader
// bound: without it such a peer stalls only its own connection);
// -max-sessions bounds live sessions (excess Opens get a typed Busy
// error); -malformed-budget is how many well-framed-but-undecodable
// frames a connection may send before being dropped. Every refusal
// moves a per-reason counter on /statsz and /debug/vars. -cpuprofile
// writes a CPU profile of the whole run, daemon or client, on exit.
//
// Client mode replays a scenario spec against a running daemon and
// reports what came back — the loopback smoke check:
//
//	buzzd -connect localhost:4117 -replay examples/scenarios/mobility.json
//	      [-retries 5] [-io-timeout 30s]
//
// The client reconnects on transport failure with exponential backoff +
// jitter, re-opening unfinished trials idempotently; -retries bounds
// connection attempts per trial and -io-timeout bounds each frame
// exchange. Every trial's payload decisions are verified against the
// ground-truth messages the replay client itself transmitted; any wrong
// payload exits non-zero.
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/bits"
	"repro/internal/engine"
	"repro/internal/engine/replay"
	"repro/internal/engine/wire"
	"repro/internal/scenario"
)

func main() {
	listen := flag.String("listen", ":4117", "TCP address for the wire protocol (empty disables)")
	unixPath := flag.String("unix", "", "unix socket path for the wire protocol (empty disables)")
	httpAddr := flag.String("http", "", "HTTP introspection address: /statsz, /healthz, /debug/vars (empty disables)")
	maxSessions := flag.Int("max-sessions", 0, "cap on concurrently live sessions (0 = unlimited; excess Opens get Busy)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for live sessions before force-closing")
	idleTimeout := flag.Duration("idle-timeout", 0, "drop a connection that starts no frame within this (0 = no bound)")
	readTimeout := flag.Duration("read-timeout", 0, "drop a connection that stalls mid-frame for this long (0 = no bound)")
	writeTimeout := flag.Duration("write-timeout", 0, "drop a connection whose reply write blocks this long, the one slow-reader bound (0 = none: a peer that stops reading stalls only its own connection)")
	malformedBudget := flag.Int("malformed-budget", engine.DefaultMalformedBudget,
		"malformed-but-framed frames tolerated per connection before dropping it (negative = none)")
	connect := flag.String("connect", "", "client mode: address of a running daemon")
	replayPath := flag.String("replay", "", "client mode: scenario spec to replay against -connect")
	retries := flag.Int("retries", 5, "client mode: connection attempts per trial (reconnect with backoff + jitter)")
	ioTimeout := flag.Duration("io-timeout", 30*time.Second, "client mode: per-frame-exchange deadline (0 = none)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the full run to this file (go tool pprof)")
	flag.Parse()

	if err := withCPUProfile(*cpuProfile, func() error {
		if *connect != "" || *replayPath != "" {
			return runClient(*connect, *replayPath, *retries, *ioTimeout)
		}
		scfg := engine.ServerConfig{
			IdleTimeout:     *idleTimeout,
			ReadTimeout:     *readTimeout,
			WriteTimeout:    *writeTimeout,
			MalformedBudget: *malformedBudget,
		}
		return runDaemon(*listen, *unixPath, *httpAddr, *maxSessions, *drainTimeout, scfg)
	}); err != nil {
		fmt.Fprintln(os.Stderr, "buzzd:", err)
		os.Exit(1)
	}
}

// withCPUProfile runs work under a CPU profile written to path, or
// plainly when path is empty; the profile is stopped and flushed before
// it returns, whatever work returned.
func withCPUProfile(path string, work func() error) error {
	if path == "" {
		return work()
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("-cpuprofile: %w", err)
	}
	runErr := work()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil && runErr == nil {
		runErr = fmt.Errorf("-cpuprofile: %w", err)
	}
	return runErr
}

func runDaemon(listen, unixPath, httpAddr string, maxSessions int, drainTimeout time.Duration, scfg engine.ServerConfig) error {
	if listen == "" && unixPath == "" {
		return fmt.Errorf("nothing to serve: both -listen and -unix are empty")
	}
	m := engine.New(engine.Config{MaxSessions: maxSessions})
	srv := engine.NewServer(m, scfg)

	var draining bool
	expvar.Publish("buzzd", expvar.Func(func() any { return m.Snapshot() }))

	serveErr := make(chan error, 3)
	var listeners []net.Listener
	addListener := func(network, addr string) error {
		ln, err := net.Listen(network, addr)
		if err != nil {
			return err
		}
		listeners = append(listeners, ln)
		fmt.Printf("buzzd: serving %s on %s\n", network, ln.Addr())
		go func() { serveErr <- srv.Serve(ln) }()
		return nil
	}
	if listen != "" {
		if err := addListener("tcp", listen); err != nil {
			return err
		}
	}
	if unixPath != "" {
		os.Remove(unixPath)
		if err := addListener("unix", unixPath); err != nil {
			return err
		}
		defer os.Remove(unixPath)
	}

	var httpSrv *http.Server
	if httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(m.Snapshot())
		})
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			if draining {
				http.Error(w, "draining", http.StatusServiceUnavailable)
				return
			}
			fmt.Fprintln(w, "ok")
		})
		mux.Handle("/debug/vars", expvar.Handler())
		hln, err := net.Listen("tcp", httpAddr)
		if err != nil {
			return err
		}
		fmt.Printf("buzzd: introspection on http://%s\n", hln.Addr())
		httpSrv = &http.Server{Handler: mux}
		go func() {
			if err := httpSrv.Serve(hln); err != nil && err != http.ErrServerClosed {
				serveErr <- err
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("buzzd: %v — draining (timeout %v)\n", s, drainTimeout)
	case err := <-serveErr:
		if err != nil {
			return err
		}
	}

	draining = true
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := srv.Shutdown(ctx)
	if httpSrv != nil {
		httpSrv.Close()
	}
	snap := m.Snapshot()
	fmt.Printf("buzzd: drained — %d sessions served, %d slots, %d payloads\n", snap.SessionsClosed, snap.SlotsIngested, snap.PayloadsAccepted)
	fmt.Printf("buzzd: failures — %d busy-rejected, %d deadline drops, %d malformed frames, %d panics recovered\n",
		snap.BusyRejected, snap.DeadlineDrops, snap.MalformedFrames, snap.PanicsRecovered)
	if drainErr != nil {
		return fmt.Errorf("drain incomplete: %w (%d sessions force-closed)", drainErr, snap.ActiveSessions)
	}
	return nil
}

// runClient replays a scenario against a running daemon through the
// reconnecting replay client and scores the returned payloads against
// the messages it transmitted.
func runClient(addr, specPath string, retries int, ioTimeout time.Duration) error {
	if addr == "" || specPath == "" {
		return fmt.Errorf("client mode needs both -connect and -replay")
	}
	spec, err := scenario.Load(specPath)
	if err != nil {
		return err
	}
	crc, err := spec.CRCKind()
	if err != nil {
		return err
	}
	var reconnects int
	cl := &replay.Client{
		Dial:        func() (net.Conn, error) { return net.Dial(dialNetwork(addr), addr) },
		IOTimeout:   ioTimeout,
		MaxAttempts: retries,
		Seed:        uint64(time.Now().UnixNano()),
		OnRetry: func(trial, attempt int, err error) {
			reconnects++
			fmt.Fprintf(os.Stderr, "buzzd: trial %d attempt %d failed (%v), retrying\n", trial, attempt, err)
		},
	}
	defer cl.Close()

	start := time.Now()
	results, err := cl.RunScenario(spec)
	if err != nil {
		return err
	}
	delivered, wrong, retired := 0, 0, 0
	for _, tr := range results {
		pay := tr.Payloads(crc)
		for i, ok := range tr.Verified {
			if !ok {
				continue
			}
			delivered++
			if !pay[i].Equal(bits.Vector(tr.Messages[i])) {
				wrong++
			}
		}
		for _, r := range tr.Retired {
			if r {
				retired++
			}
		}
	}
	// Stats ride a fresh plain connection: the replay conn may have been
	// retired by a late fault, and stats must not fail the replay.
	var stats *wire.StatsReply
	if sc, err := net.Dial(dialNetwork(addr), addr); err == nil {
		stats, err = replay.FetchStats(sc)
		sc.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "buzzd: stats fetch failed: %v\n", err)
		}
	}
	kTot := spec.TotalTags()
	fmt.Printf("scenario %q: %d trials x %d tags streamed in %.2fs (%d reconnects)\n",
		spec.Name, len(results), kTot, time.Since(start).Seconds(), reconnects)
	fmt.Printf("  delivered %d/%d payloads, %d wrong, %d retired by departure\n",
		delivered, len(results)*kTot, wrong, retired)
	if stats != nil {
		fmt.Printf("  daemon: %d sessions open, %d opened, %d slots ingested, %d payloads\n", stats.ActiveSessions, stats.SessionsOpened, stats.SlotsIngested, stats.PayloadsAccepted)
		fmt.Printf("  daemon failures: %d busy-rejected, %d deadline drops, %d malformed frames, %d panics recovered\n",
			stats.BusyRejected, stats.DeadlineDrops, stats.MalformedFrames, stats.PanicsRecovered)
	}
	if wrong > 0 {
		return fmt.Errorf("%d wrong payloads delivered", wrong)
	}
	return nil
}

// dialNetwork guesses unix vs tcp from the address shape.
func dialNetwork(addr string) string {
	if len(addr) > 0 && (addr[0] == '/' || addr[0] == '.') {
		return "unix"
	}
	return "tcp"
}
