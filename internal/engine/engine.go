// Package engine hosts the decode core behind a session manager: the
// one owner of bp.Session + scratch-arena lifecycle for every decode
// path in the repo. Batch simulation (sim.Run's trial pool) and
// the streaming daemon (cmd/buzzd, over the wire protocol in
// engine/wire) are both clients of the same SessionManager, so the
// decode loop they drive — ratedapt.Stream — cannot fork between them;
// the conformance goldens replay the example scenarios through a
// loopback daemon against the batch engine and require byte-identical
// decisions.
//
// Architecture: a live session decodes on its caller's goroutine — in
// buzzd, the goroutine of the connection that opened it — one slot per
// Feed, in arrival order, and owns pooled resources (a bp.Session
// recycled via Session.Reset, a scratch arena) for its whole life. The
// manager starts no goroutine for streaming work: separate connections
// decode in parallel, sessions multiplexed on one connection one after
// another. Feed returns its slot's outcome and Close the session's
// summary; the caller reports them. In buzzd the connection's goroutine
// writes each reply itself before it reads the next frame, so a slow
// decode or a peer that stops reading stalls that connection alone, and
// TCP pushes back on the peer.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bits"
	"repro/internal/bp"
	"repro/internal/ratedapt"
	"repro/internal/scratch"
)

// Config parameterizes a SessionManager.
type Config struct {
	// MaxSessions caps concurrently live streaming sessions; 0 = no cap.
	MaxSessions int
}

// Resources is one worker's pooled decode state: the scratch arena and
// the bp.Session every transfer of that worker runs on. Recycling goes
// through Session.Reset (state cleared, capacity and warmth kept), so a
// pooled pair re-runs a same-shaped workload without reallocating.
type Resources struct {
	Scratch *scratch.Scratch
	Session *bp.Session
}

// Stats is the manager's live counter block. All fields are atomics:
// decoding goroutines bump them on the hot path, the introspection
// endpoint snapshots them without coordination. The per-reason failure counters
// (deadline, malformed, panic, busy-rejected) exist so failures are
// observable from counters, not logs: every way a session or
// connection can die moves exactly one of them.
type Stats struct {
	ActiveSessions   atomic.Int64
	SessionsOpened   atomic.Int64
	SessionsClosed   atomic.Int64
	SlotsIngested    atomic.Int64
	RowsRetired      atomic.Int64
	PayloadsAccepted atomic.Int64
	TrialsRun        atomic.Int64
	// BusyRejected counts Opens refused by admission control (the
	// MaxSessions budget) — the caller was told Busy.
	BusyRejected atomic.Int64
	// DeadlineDrops counts connections the server killed for blowing a
	// read/write deadline or idle timeout.
	DeadlineDrops atomic.Int64
	// MalformedFrames counts frames that parsed as frames but failed
	// payload decode; each burns one unit of a connection's error
	// budget.
	MalformedFrames atomic.Int64
	// PanicsRecovered counts decode panics confined to their session:
	// the session died with a wire Error, the daemon and its sibling
	// sessions kept running.
	PanicsRecovered atomic.Int64
	// ResourcesInFlight tracks pooled Session+Scratch pairs currently
	// checked out; it must return to zero when no work is live, or a
	// session leaked its pool slot.
	ResourcesInFlight atomic.Int64
	// Per-phase decode cost, drained from every streaming session's
	// bp.Session after each ingested slot (bp.DecodeCost): gradient
	// descent passes, random-restart passes, and bit flips. The ratio
	// of these to SlotsIngested is the decode effort per slot — the
	// counter to watch when a workload change moves the slot rate.
	DescentPasses atomic.Int64
	RestartPasses atomic.Int64
	BitFlips      atomic.Int64
}

// StatsSnapshot is a plain-int copy of Stats for serialization, plus
// the manager's uptime and the lifetime average slot rate.
type StatsSnapshot struct {
	ActiveSessions    int64   `json:"active_sessions"`
	SessionsOpened    int64   `json:"sessions_opened"`
	SessionsClosed    int64   `json:"sessions_closed"`
	SlotsIngested     int64   `json:"slots_ingested"`
	RowsRetired       int64   `json:"rows_retired"`
	PayloadsAccepted  int64   `json:"payloads_accepted"`
	TrialsRun         int64   `json:"trials_run"`
	BusyRejected      int64   `json:"busy_rejected"`
	DeadlineDrops     int64   `json:"deadline_drops"`
	MalformedFrames   int64   `json:"malformed_frames"`
	PanicsRecovered   int64   `json:"panics_recovered"`
	ResourcesInFlight int64   `json:"resources_in_flight"`
	DescentPasses     int64   `json:"descent_passes"`
	RestartPasses     int64   `json:"restart_passes"`
	BitFlips          int64   `json:"bit_flips"`
	UptimeSeconds     float64 `json:"uptime_seconds"`
	SlotsPerSecond    float64 `json:"slots_per_second"`
}

// SessionManager owns decode sessions: the pooled Resources behind
// them, admission of streaming sessions, and the live counters. One
// manager serves both the batch API (RunBatch) and the streaming API
// (Open/Feed/Close); a process normally has one.
type SessionManager struct {
	cfg   Config
	stats Stats
	start time.Time

	mu       sync.Mutex
	draining bool
	live     sync.WaitGroup
	nLive    int
	nextID   atomic.Uint64
}

// New builds a SessionManager.
func New(cfg Config) *SessionManager {
	return &SessionManager{cfg: cfg, start: time.Now()}
}

// Snapshot copies the counters for serialization.
func (m *SessionManager) Snapshot() StatsSnapshot {
	up := time.Since(m.start).Seconds()
	slots := m.stats.SlotsIngested.Load()
	snap := StatsSnapshot{
		ActiveSessions:    m.stats.ActiveSessions.Load(),
		SessionsOpened:    m.stats.SessionsOpened.Load(),
		SessionsClosed:    m.stats.SessionsClosed.Load(),
		SlotsIngested:     slots,
		RowsRetired:       m.stats.RowsRetired.Load(),
		PayloadsAccepted:  m.stats.PayloadsAccepted.Load(),
		TrialsRun:         m.stats.TrialsRun.Load(),
		BusyRejected:      m.stats.BusyRejected.Load(),
		DeadlineDrops:     m.stats.DeadlineDrops.Load(),
		MalformedFrames:   m.stats.MalformedFrames.Load(),
		PanicsRecovered:   m.stats.PanicsRecovered.Load(),
		ResourcesInFlight: m.stats.ResourcesInFlight.Load(),
		DescentPasses:     m.stats.DescentPasses.Load(),
		RestartPasses:     m.stats.RestartPasses.Load(),
		BitFlips:          m.stats.BitFlips.Load(),
		UptimeSeconds:     up,
	}
	if up > 0 {
		snap.SlotsPerSecond = float64(slots) / up
	}
	return snap
}

// getResources takes a scratch arena and a bp.Session, each from its
// own pool.
func (m *SessionManager) getResources() *Resources {
	m.stats.ResourcesInFlight.Add(1)
	return &Resources{Scratch: scratch.Get(), Session: bp.GetSession()}
}

// putResources returns each of a pair's resources to its pool. Reset
// (not realloc) keeps every buffer's capacity.
func (m *SessionManager) putResources(r *Resources) {
	r.Session.Reset()
	bp.PutSession(r.Session)
	scratch.Put(r.Scratch)
	m.stats.ResourcesInFlight.Add(-1)
}

// dropResources retires a pair whose session survived a decode panic:
// its internal state cannot be trusted, so neither resource re-enters
// its pool — the next session takes fresh ones.
func (m *SessionManager) dropResources() {
	m.stats.ResourcesInFlight.Add(-1)
}

// RunBatch fans body out over a worker pool — the re-parented
// sim.forEachTrial. Worker count is min(GOMAXPROCS, trials); each worker
// draws pooled Resources, runs trials off a shared queue, and resets
// the scratch arena between trials. Each trial decodes on its worker's
// goroutine, so the trial workers are the batch's only parallelism, and
// every trial's outputs are the same at any worker count. The first
// body error (lowest trial index) is returned.
func (m *SessionManager) RunBatch(trials int, body func(trial int, res *Resources) error) error {
	if trials <= 0 {
		return nil
	}
	workers := min(runtime.GOMAXPROCS(0), trials)
	var wg sync.WaitGroup
	errs := make([]error, trials)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := m.getResources()
			defer m.putResources(res)
			for trial := range next {
				errs[trial] = body(trial, res)
				res.Scratch.Reset()
				m.stats.TrialsRun.Add(1)
			}
		}()
	}
	for trial := 0; trial < trials; trial++ {
		next <- trial
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// addDecodeCost folds one drained bp.DecodeCost block into the live
// counters.
func (m *SessionManager) addDecodeCost(c bp.DecodeCost) {
	if c.DescentPasses != 0 {
		m.stats.DescentPasses.Add(int64(c.DescentPasses))
	}
	if c.RestartPasses != 0 {
		m.stats.RestartPasses.Add(int64(c.RestartPasses))
	}
	if c.Flips != 0 {
		m.stats.BitFlips.Add(int64(c.Flips))
	}
}

// AcceptedFrame is one payload decision: the session-local tag index
// (join order) and the accepted frame (payload + CRC bits).
type AcceptedFrame struct {
	Tag   int
	Frame bits.Vector
}

// SlotOutcome is one decoded slot: the stream's step and the frames
// accepted in it.
type SlotOutcome struct {
	Step     ratedapt.StepResult
	Accepted []AcceptedFrame
}

// SessionSummary is the closing state of a streaming session.
type SessionSummary struct {
	SlotsUsed   int
	Joined      int
	Accepted    int
	RowsRetired int
}

// LiveSession is one streaming decode session: a ratedapt.Stream fed
// one slot at a time. Feed and Close may be called from any single
// goroutine (the owning connection's), and all decode work happens on
// it.
type LiveSession struct {
	ID uint64

	m   *SessionManager
	st  *ratedapt.Stream
	res *Resources

	err      error // the failed slot's error; nothing decodes after it
	poisoned bool  // died by panic; resources suspect
	closed   bool
}

// ErrBusy reports an Open refused by admission control: the live-session
// budget (Config.MaxSessions) is spent. Retry with backoff.
var ErrBusy = fmt.Errorf("engine: busy — session budget exhausted")

// ErrDraining reports an Open refused because the manager is shutting
// down; no amount of retrying against this process will help.
var ErrDraining = fmt.Errorf("engine: manager is draining; no new sessions")

// ErrDecodePanic wraps a panic recovered inside one session's decode
// work. The session is dead and its pooled resources are discarded;
// sibling sessions and the daemon keep running.
var ErrDecodePanic = fmt.Errorf("engine: decode panicked")

// testHookDecodePanic, when set (tests only), runs at the top of every
// slot's decode and may panic to exercise the isolation path.
var testHookDecodePanic atomic.Value // of func(sessionID uint64, slot int)

// Open starts a streaming session on pooled resources. cfg's Scratch
// and Session fields are owned by the manager and must be nil. The
// returned session must be Closed, even after errors.
func (m *SessionManager) Open(cfg ratedapt.StreamConfig) (*LiveSession, error) {
	if cfg.Scratch != nil || cfg.Session != nil {
		return nil, fmt.Errorf("engine: Open owns Scratch/Session; leave them nil")
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	if m.cfg.MaxSessions > 0 && m.nLive >= m.cfg.MaxSessions {
		m.mu.Unlock()
		m.stats.BusyRejected.Add(1)
		return nil, fmt.Errorf("%w (cap %d)", ErrBusy, m.cfg.MaxSessions)
	}
	m.nLive++
	m.live.Add(1)
	m.mu.Unlock()

	res := m.getResources()
	cfg.Scratch, cfg.Session = res.Scratch, res.Session
	st, err := ratedapt.OpenStream(cfg)
	if err != nil {
		m.putResources(res)
		m.mu.Lock()
		m.nLive--
		m.mu.Unlock()
		m.live.Done()
		return nil, err
	}
	m.stats.SessionsOpened.Add(1)
	m.stats.ActiveSessions.Add(1)
	return &LiveSession{
		ID:  m.nextID.Add(1),
		m:   m,
		st:  st,
		res: res,
	}, nil
}

// FrameLen returns the session's frame length (payload + CRC bits).
func (l *LiveSession) FrameLen() int { return l.st.FrameLen() }

// Feed decodes one slot — population/channel events plus the received
// observations — on the caller's goroutine: stream advance, append,
// decode, acceptance gates. It returns the slot's outcome, whose
// accepted frames are the stream's own copies, valid until Close.
// The whole slot runs under the session's panic isolation: a blow-up
// kills its session (counters, resources quarantined at Close) and
// nothing else. A slot that fails returns its error, and the session is
// dead: every later Feed returns that error again without decoding.
// Feed transfers ownership of ev's slices and obs to the engine; the
// caller must not reuse them.
func (l *LiveSession) Feed(ev ratedapt.SlotEvents, obs []complex128) (out SlotOutcome, err error) {
	if l.err != nil {
		return SlotOutcome{}, l.err
	}
	m := l.m
	defer func() {
		if r := recover(); r != nil {
			l.poisoned = true
			m.stats.PanicsRecovered.Add(1)
			out, err = SlotOutcome{}, fmt.Errorf("%w: %v", ErrDecodePanic, r)
		}
		l.err = err
	}()
	if hook, _ := testHookDecodePanic.Load().(func(uint64, int)); hook != nil {
		hook(l.ID, l.st.Slot()+1)
	}
	if _, err := l.st.Advance(ev); err != nil {
		return SlotOutcome{}, err
	}
	step, err := l.st.Ingest(obs)
	if err != nil {
		return SlotOutcome{}, err
	}
	m.stats.SlotsIngested.Add(1)
	m.stats.RowsRetired.Add(int64(step.RowsRetired))
	m.stats.PayloadsAccepted.Add(int64(step.NewlyAccepted))
	m.addDecodeCost(l.st.TakeDecodeCost())
	out = SlotOutcome{Step: step}
	if n := len(l.st.Accepted()); n > 0 {
		out.Accepted = make([]AcceptedFrame, 0, n)
		for _, tag := range l.st.Accepted() {
			out.Accepted = append(out.Accepted, AcceptedFrame{Tag: tag, Frame: l.st.Frame(tag)})
		}
	}
	return out, nil
}

// Close retires the session on the caller's goroutine and returns its
// summary. The resources return to their pools — unless the session was
// poisoned by a panic, in which case they are discarded instead of
// recycled. Idempotent: a repeated Close returns the zero summary. The
// caller must not Feed after Close. A panic in the teardown is counted
// and recovered, and the session's admission slot is released however
// the teardown ends, so neither the caller nor Drain is stranded.
func (l *LiveSession) Close() (summary SessionSummary) {
	if l.closed {
		return SessionSummary{}
	}
	l.closed = true
	m := l.m
	defer func() {
		if r := recover(); r != nil {
			m.stats.PanicsRecovered.Add(1)
		}
		m.mu.Lock()
		m.nLive--
		m.mu.Unlock()
		m.live.Done()
	}()
	// Even the teardown reads are suspect after a panic: take the
	// summary and close the stream under a recover, and treat a blow-up
	// here as poisoning too.
	clean := func() (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				m.stats.PanicsRecovered.Add(1)
				ok = false
			}
		}()
		summary = SessionSummary{
			SlotsUsed:   l.st.Slot(),
			Joined:      l.st.Joined(),
			Accepted:    l.st.TotalAccepted(),
			RowsRetired: l.st.RowsRetired(),
		}
		l.st.Close()
		return true
	}()
	if l.poisoned || !clean {
		m.dropResources()
	} else {
		m.putResources(l.res)
	}
	m.stats.ActiveSessions.Add(-1)
	m.stats.SessionsClosed.Add(1)
	return summary
}

// Drain refuses new sessions and waits for the live ones to close —
// the SIGTERM path. Returns ctx's error if they don't finish in time
// (the caller then force-closes connections).
func (m *SessionManager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	done := make(chan struct{})
	go func() {
		m.live.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
