// Package server implements a concurrent attestation gateway: the
// Verifier side of the internal/remote protocol as a network service that
// many prover devices dial into simultaneously — the continuous
// fleet-auditing deployment that CFA papers (TRACES, ACFA) frame and that
// a single blocking RequestAttestation cannot serve.
//
// Session flow (device side speaks remote.Client.Attest):
//
//	device  -> HELO v|app      announce protocol version + provisioned app
//	gateway -> [DICT] CHAL     live SpecCFA dictionary (when non-empty),
//	        |  BUSY            then a fresh challenge; or shed at capacity
//	device  -> RPRT* (Final)   signed (partial) report chain
//	gateway -> VRDT | FAIL     verdict summary (typed reason code), or
//	                           session error
//
// Three availability mechanisms keep a stalled or malicious device from
// wedging the service (they are availability defenses only — evidence
// integrity rests on the report authenticators, not the transport):
//
//   - a max-concurrent-sessions slot limit with graceful shedding: beyond
//     the cap, a connection's HELO is read and answered with one BUSY
//     frame, then the connection is closed;
//   - per-I/O read/write deadlines plus an overall session deadline,
//     enforced on every frame via the timedConn wrapper;
//   - a bounded worker pool owning the CPU-heavy path reconstruction
//     (verify.Verifier.Verify), so session goroutines queue for
//     verification (backpressure) instead of oversubscribing the host,
//     and the accept loop never blocks on verification at all.
//
// One immutable verify.Verifier per app is shared by all sessions (see
// the concurrency contract on verify.Verifier).
//
// # Observability
//
// Every count the gateway keeps lives in one obs.Registry (attach your
// own with WithObserver, e.g. to serve it via obs.AdminHandler): session
// and verdict counters, byte and frame counters, per-stage and per-phase
// latency histograms, plus scrape-time views of slot occupancy, queue
// depth, cache totals, dictionary sizes, and breaker states. Each
// session additionally leaves a span trace (accept → helo → dict_push →
// collect → verify → verdict_write) in the observer's per-app rings.
// Gateway.Snapshot reads the registry back into an immutable Stats
// value — there is no second counting system.
//
// # Fast path
//
// Each registered app gets a shared verify.Cache (unless disabled), so
// concurrent and successive sessions attesting identical firmware reuse
// pushdown work; and after accepted verdicts that missed the cache the
// gateway periodically mines the consumed evidence for hot sub-paths
// (speccfa.Mine), promoting them into a live dictionary delivered to
// provers in the DICT handshake frame — future CFLogs shrink without
// re-provisioning devices.
package server

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"raptrack/internal/attest"
	"raptrack/internal/obs"
	"raptrack/internal/remote"
	"raptrack/internal/speccfa"
	"raptrack/internal/trace/pipeline"
	"raptrack/internal/verify"
)

// appState is everything the gateway holds per registered application:
// the shared Verifier (cache-attached), and the live speculation
// dictionary swapped atomically by mining promotions. Sessions load the
// dictionary pointer once and use that snapshot for both delivery and
// expansion, so a promotion mid-session cannot desynchronize the two.
type appState struct {
	name     string
	verifier *verify.Verifier
	cache    *verify.Cache // nil when caching is disabled

	dict   atomic.Pointer[dictState]
	dictMu sync.Mutex    // serializes mining promotions
	misses atomic.Uint64 // accepted verdicts that missed the verdict cache (mining cadence)

	// autCtrs outlives the per-dictState machines so exported metrics
	// stay monotonic across DICT-bump recompiles.
	autCtrs *verify.AutomatonCounters

	// brk sheds the app's sessions while its verify path is erroring
	// (see WithBreaker).
	brk breaker
}

// dictState is one immutable version of an app's live dictionary, paired
// with the automaton machine compiled against exactly that dictionary.
// Sessions load the pointer once, so a mining promotion mid-session can
// never hand a session a machine bound to a different dictionary than the
// one its prover compressed with (the per-session-snapshot invariant).
type dictState struct {
	version uint64
	dict    *speccfa.Dictionary
	encoded []byte            // DICT frame payload (nil when the dictionary is empty)
	aut     *verify.Automaton // machine bound to dict (nil: interpreter only)
}

// verifyJob is one reconstruction request handed to the worker pool.
type verifyJob struct {
	app         *appState
	device      string // session peer address (journal attribution)
	chal        attest.Challenge
	reports     []*attest.Report
	dict        *speccfa.Dictionary // session dictionary snapshot
	dictVersion uint64              // snapshot version (journal attribution)
	aut         *verify.Automaton   // machine compiled for dict (nil: interpreter)
	resp        chan verifyResult   // buffered(1): workers never block on delivery

	// exec, when set, replaces the default whole-evidence verification on
	// the worker (streaming sessions enqueue slice feeds and the seal this
	// way); it runs under the same panic guard and VerifyHook.
	exec func() verifyResult
	// finalize marks a job whose result is a session's authoritative
	// verdict: it gets the verify histograms, decode classification,
	// breaker record, journal commit, and mining treatment. Slice-feed
	// jobs are not finalize — only their session's seal is.
	finalize bool
}

type verifyResult struct {
	verdict *verify.Verdict
	err     error
}

// Gateway is a concurrent attestation server. Construct with New,
// Register verifiers, then Serve one or more listeners; Close drains.
type Gateway struct {
	cfg config
	obs *obs.Observer
	m   *gatewayMetrics

	mu        sync.Mutex
	apps      map[string]*appState
	listeners []net.Listener
	closed    bool // guarded by mu; set exactly once by Close

	slots chan struct{} // session slot semaphore (cap MaxSessions)
	jobs  chan verifyJob
	heals *healRegistry // per-device healing state machine (streaming)

	sessions sync.WaitGroup
	workers  sync.WaitGroup
}

// New builds a gateway from functional options (see Option) and starts
// its verification worker pool. With no options every default applies
// and a private observer is created, exactly as documented on each
// option.
func New(opts ...Option) *Gateway {
	var s settings
	for _, opt := range opts {
		opt(&s)
	}
	return newGateway(s)
}

func newGateway(s settings) *Gateway {
	cfg := s.cfg.withDefaults()
	o := s.obs
	if o == nil {
		o = obs.NewObserver(nil, 0)
	}
	g := &Gateway{
		cfg:   cfg,
		obs:   o,
		apps:  make(map[string]*appState),
		slots: make(chan struct{}, cfg.MaxSessions),
		jobs:  make(chan verifyJob, cfg.VerifyQueue),
		heals: newHealRegistry(),
	}
	g.m = g.registerMetrics()
	g.workers.Add(cfg.VerifyWorkers)
	for i := 0; i < cfg.VerifyWorkers; i++ {
		go g.worker()
	}
	return g
}

// Observer returns the gateway's observability handle — the metrics
// registry plus the per-app session-trace rings. Serve it with
// obs.AdminHandler, or read it directly in tests.
func (g *Gateway) Observer() *obs.Observer { return g.obs }

// Register provisions the shared Verifier for one application. Unless
// caching is disabled (WithCache(-1)) a verdict cache is attached — the
// Verifier's own if it already carries one, a fresh per-app cache
// otherwise — and the Verifier's provisioned speculation dictionary seeds
// the app's live dictionary. Safe to call while serving; re-registering
// replaces (and resets the live dictionary and mining cadence).
func (g *Gateway) Register(app string, v *verify.Verifier) {
	if g.cfg.CacheBytes >= 0 && v.Cache() == nil {
		v = v.With(verify.WithCache(verify.NewCache(g.cfg.CacheBytes)))
	}
	st := &appState{
		name:     app,
		verifier: v,
		cache:    v.Cache(),
		autCtrs:  &verify.AutomatonCounters{},
		brk:      breaker{threshold: g.cfg.BreakerThreshold, cooldown: g.cfg.BreakerCooldown},
	}
	ds := st.newDictState(0, v.Speculation())
	// Journal the version before any session can load it, so its record
	// precedes every verdict that names it.
	if len(ds.encoded) > 0 {
		g.journalDict(app, ds.version, ds.encoded)
	}
	st.dict.Store(ds)
	g.mu.Lock()
	g.apps[app] = st
	g.mu.Unlock()
}

// newDictState freezes one immutable dictionary version for the app,
// compiling the automaton machine bound to it so every session verifies
// against a consistent dictionary+machine pair.
func (st *appState) newDictState(version uint64, d *speccfa.Dictionary) *dictState {
	ds := &dictState{version: version, dict: d}
	if d.Len() > 0 {
		ds.encoded = d.Encode()
	}
	ds.aut = st.compileAut(d)
	return ds
}

// compileAut lowers the app's golden artifact against d. The verifier's
// compiled transition core is reused, so a DICT version bump recompiles
// in O(dictionary) rather than O(image). Returns nil — sessions fall back
// to the interpretive search — when the verifier was built with
// verify.WithAutomaton(false), or when compilation fails.
func (st *appState) compileAut(d *speccfa.Dictionary) *verify.Automaton {
	start := time.Now()
	aut, err := st.verifier.CompileAutomaton(d)
	if err != nil || aut == nil {
		return nil
	}
	st.autCtrs.NoteCompile(time.Since(start))
	return aut.WithCounters(st.autCtrs)
}

func (g *Gateway) app(name string) *appState {
	g.mu.Lock()
	st := g.apps[name]
	g.mu.Unlock()
	return st
}

// ErrClosed is returned by Serve on a gateway that was already closed.
var ErrClosed = errors.New("server: gateway closed")

// Serve accepts sessions on l until Close (then returns nil) or a fatal
// accept error. Each connection is served on its own goroutine; the
// accept loop itself never runs protocol I/O or verification.
func (g *Gateway) Serve(l net.Listener) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return ErrClosed
	}
	g.listeners = append(g.listeners, l)
	g.mu.Unlock()

	for {
		conn, err := l.Accept()
		if err != nil {
			if g.isClosed() {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		// The session WaitGroup Add and the Close flag share the mutex:
		// either this Add happens before Close's Wait, or Close already
		// ran and the connection is dropped.
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			conn.Close()
			return nil
		}
		g.sessions.Add(1)
		g.mu.Unlock()
		go func() {
			defer g.sessions.Done()
			g.handleConn(conn)
		}()
	}
}

// ServeConn serves one already-accepted connection synchronously,
// running the same admission, deadline, and tracing path as connections
// from Serve's accept loop — for transports that are not a
// net.Listener, such as in-memory pipes. On a closed gateway the
// connection is dropped and ErrClosed returned.
func (g *Gateway) ServeConn(conn net.Conn) error {
	// The session WaitGroup Add and the Close flag share the mutex,
	// exactly as in Serve: either this Add happens before Close's Wait,
	// or Close already ran and the connection is dropped.
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		conn.Close()
		return ErrClosed
	}
	g.sessions.Add(1)
	g.mu.Unlock()
	defer g.sessions.Done()
	g.handleConn(conn)
	return nil
}

func (g *Gateway) isClosed() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.closed
}

// Close stops accepting, waits for in-flight sessions, and drains the
// worker pool. Idempotent.
func (g *Gateway) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	ls := g.listeners
	g.listeners = nil
	g.mu.Unlock()
	for _, l := range ls {
		_ = l.Close()
	}
	g.sessions.Wait()
	close(g.jobs)
	g.workers.Wait()
	return nil
}

// countFrame bumps the frame counter for typ in the given direction
// array (nil entries cover unknown frame types defensively).
func countFrame(dir []*obs.Counter, typ byte) {
	if int(typ) < len(dir) && dir[typ] != nil {
		dir[typ].Inc()
	}
}

// readFrame and writeFrame wrap the remote framing with the per-type
// frame counters, so /metrics attributes traffic per protocol step.
func (g *Gateway) readFrame(tc *timedConn) (byte, []byte, error) {
	typ, payload, err := remote.ReadFrame(tc)
	if err == nil {
		countFrame(g.m.framesIn[:], typ)
	}
	return typ, payload, err
}

func (g *Gateway) writeFrame(tc *timedConn, typ byte, payload []byte) error {
	err := remote.WriteFrame(tc, typ, payload)
	if err == nil {
		countFrame(g.m.framesOut[:], typ)
	}
	return err
}

// handleConn runs one session: acquire a slot or shed, then speak the
// protocol under deadlines. Every connection — shed, failed, or verdict
// — commits exactly one span trace.
func (g *Gateway) handleConn(conn net.Conn) {
	defer conn.Close()
	g.m.sessionsStarted.Inc()
	tr := g.obs.StartTrace(conn.RemoteAddr().String())

	select {
	case g.slots <- struct{}{}:
	default:
		g.shed(conn, tr)
		return
	}
	g.span(tr, obs.StageAccept, -1, time.Since(tr.Began))

	g.m.sessionsAccepted.Inc()
	deadline := time.Now().Add(g.cfg.SessionTimeout)
	tc := &timedConn{
		Conn:      conn,
		ioTimeout: g.cfg.IOTimeout,
		end:       deadline,
		bytesIn:   g.m.bytesIn,
		bytesOut:  g.m.bytesOut,
	}
	err := g.safeSession(tc, deadline, tr)
	// Free the slot before recording the outcome, so a Snapshot that
	// counts this session as failed never still counts it as active.
	<-g.slots
	if err != nil {
		g.m.sessionsFailed.Inc()
		tr.Finish("error", err.Error())
		if g.cfg.OnSessionError != nil {
			g.cfg.OnSessionError(conn.RemoteAddr().String(), err)
		}
	}
	g.obs.Commit(tr)
}

// shed answers a connection that arrived at capacity with one
// best-effort BUSY frame. The client's HELO is read first (bounded by
// IOTimeout and remote.MaxFrame): closing a TCP connection with unread
// bytes sends an RST, which the client would see as a reset instead of
// BUSY, and over a synchronous pipe the BUSY write and the HELO write
// would block each other until the timeout. Each step gets its own
// deadline so a silent or non-reading client cannot pin this goroutine.
func (g *Gateway) shed(conn net.Conn, tr *obs.Trace) {
	g.m.shedCapacity.Inc()
	_ = conn.SetReadDeadline(time.Now().Add(g.cfg.IOTimeout))
	if typ, _, err := remote.ReadFrame(conn); err == nil {
		countFrame(g.m.framesIn[:], typ)
	}
	_ = conn.SetWriteDeadline(time.Now().Add(g.cfg.IOTimeout))
	if remote.WriteFrame(conn, remote.FrameBusy, remote.EncodeBusy(g.cfg.BusyRetryAfter)) == nil {
		countFrame(g.m.framesOut[:], remote.FrameBusy)
	}
	tr.Finish("shed-busy", "at session capacity")
	g.obs.Commit(tr)
}

// safeSession runs session under a panic guard: one berserk session
// (protocol handler bug, injected fault) is recovered, counted, and
// reported as a session error instead of killing the whole gateway.
func (g *Gateway) safeSession(tc *timedConn, deadline time.Time, tr *obs.Trace) (err error) {
	defer func() {
		if p := recover(); p != nil {
			g.m.panicsRecovered.Inc()
			err = fmt.Errorf("server: session panicked: %v", p)
		}
	}()
	return g.session(tc, deadline, tr)
}

// session speaks one gateway session on an already-admitted connection.
// On a nil return the trace is already finished (verdict or graceful
// shed); on error the caller stamps the trace.
func (g *Gateway) session(tc *timedConn, deadline time.Time, tr *obs.Trace) error {
	stageStart := time.Now()
	typ, payload, err := g.readFrame(tc)
	if err != nil {
		return fmt.Errorf("server: reading hello: %w", err)
	}
	if typ != remote.FrameHello {
		_ = g.writeFrame(tc, remote.FrameFail, []byte("expected hello frame"))
		return fmt.Errorf("server: expected hello frame, got type %d", typ)
	}
	app, device, err := remote.ParseHelloID(payload)
	if err != nil {
		_ = g.writeFrame(tc, remote.FrameFail, []byte(err.Error()))
		return fmt.Errorf("server: %w", err)
	}
	// Journal attribution prefers the announced device identity — stable
	// across reconnects — over the ephemeral transport address.
	if device == "" {
		device = tc.RemoteAddr().String()
	}
	tr.SetApp(app)
	g.span(tr, obs.StageHelo, -1, time.Since(stageStart))
	st := g.app(app)
	if st == nil {
		_ = g.writeFrame(tc, remote.FrameFail, []byte(fmt.Sprintf("unknown application %q", app)))
		return fmt.Errorf("server: unknown application %q", app)
	}

	// Circuit breaker: while the app's verify path is erroring, shed with a
	// BUSY carrying the remaining cooldown — a graceful degradation, not a
	// session failure.
	admitted, probe, retryAfter := st.brk.admit(time.Now())
	if !admitted {
		g.m.shedBreaker.Inc()
		if retryAfter <= 0 {
			retryAfter = g.cfg.BusyRetryAfter
		}
		_ = g.writeFrame(tc, remote.FrameBusy, remote.EncodeBusy(retryAfter))
		tr.Finish("shed-busy", "breaker cooldown")
		return nil
	}
	enqueued := false
	if probe {
		g.m.breakerHalfOpens.Inc()
		// A probe that dies before its evidence reaches a worker decides
		// nothing; release the half-open slot for the next candidate.
		defer func() {
			if !enqueued {
				st.brk.abort()
			}
		}()
	}

	// One dictionary snapshot rules the whole session: what the prover
	// compresses with is exactly what the verifier expands with, even if a
	// mining promotion swaps the live pointer mid-flight.
	ds := st.dict.Load()
	if len(ds.encoded) > 0 {
		stageStart = time.Now()
		if err := g.writeFrame(tc, remote.FrameDict, ds.encoded); err != nil {
			return fmt.Errorf("server: sending dictionary: %w", err)
		}
		g.span(tr, obs.StageDictPush, -1, time.Since(stageStart))
	}

	chal, err := attest.NewChallenge(app)
	if err != nil {
		_ = g.writeFrame(tc, remote.FrameFail, []byte("challenge generation failed"))
		return err
	}
	stageStart = time.Now()
	if err := g.writeFrame(tc, remote.FrameChal, chal.Encode()); err != nil {
		return fmt.Errorf("server: sending challenge: %w", err)
	}
	// The first evidence frame decides the session's delivery mode: a
	// SLICE frame opens a streaming session (slice-by-slice verification
	// with mid-run HEAL directives), anything else is the batch report
	// stream.
	typ, payload, err = g.readFrame(tc)
	if err != nil {
		return fmt.Errorf("server: reading evidence: %w", truncated(err))
	}
	if typ == remote.FrameSlice {
		sent, err := g.streamSession(tc, tr, st, device, chal, ds, deadline, payload, stageStart)
		enqueued = sent
		return err
	}
	reports, err := g.collectReports(tc, typ, payload)
	if err != nil {
		return err
	}
	g.span(tr, obs.StageCollect, -1, time.Since(stageStart))

	verifyOffset := time.Since(tr.Began)
	stageStart = time.Now()
	verdict, sent, err := g.verify(st, device, chal, reports, ds, deadline)
	enqueued = sent
	if err != nil {
		_ = g.writeFrame(tc, remote.FrameFail, []byte(err.Error()))
		return err
	}
	// StageVerify is the session's view: queue wait plus reconstruction.
	// The expand sub-span (measured inside the verifier) is re-anchored
	// into the timeline after the auth phase it follows.
	g.span(tr, obs.StageVerify, -1, time.Since(stageStart))
	if tm := verdict.Timing; tm.Expand > 0 {
		g.span(tr, obs.StageExpand, verifyOffset+tm.Auth, tm.Expand)
	}

	// Fresh authenticated evidence of a benign run resolves any healing
	// state the device carried, whichever delivery mode it re-attested by.
	if verdict.OK {
		g.heals.accepted(healKey(app, device))
	}
	return g.deliverVerdict(tc, tr, verdict)
}

// deliverVerdict counts the verdict class, writes the VRDT frame, and
// finishes the trace — the shared tail of batch and streaming sessions.
func (g *Gateway) deliverVerdict(tc *timedConn, tr *obs.Trace, verdict *verify.Verdict) error {
	switch {
	case verdict.OK:
		g.m.verdictOK.Inc()
	case verdict.Code == verify.ReasonInconclusive:
		// Authentic evidence attesting its own loss (MTB wrap / arming
		// drop): neither accept nor attack — the device should re-attest.
		g.m.verdictInconclusive.Inc()
		g.m.rejections[verdict.Code].Inc()
	default:
		g.m.verdictAttack.Inc()
		if verdict.Code.Valid() {
			g.m.rejections[verdict.Code].Inc()
		}
	}
	stageStart := time.Now()
	if err := g.writeFrame(tc, remote.FrameVerdict, remote.EncodeVerdict(verdict.OK, verdict.Code, verdict.Detail)); err != nil {
		return fmt.Errorf("server: sending verdict: %w", err)
	}
	g.span(tr, obs.StageVerdictWrite, -1, time.Since(stageStart))
	if verdict.OK {
		tr.Finish("ok", "")
	} else {
		tr.Finish(verdict.Code.String(), verdict.Detail)
	}
	return nil
}

// verify hands the reconstruction to the worker pool and waits for the
// result, but never past the session deadline: a saturated pool exerts
// backpressure here, not in the accept or read loops. enqueued reports
// whether the job reached the pool (every enqueued job is recorded by the
// app's circuit breaker exactly once, even if this session stops waiting).
func (g *Gateway) verify(st *appState, device string, chal attest.Challenge, reports []*attest.Report, ds *dictState, deadline time.Time) (vd *verify.Verdict, enqueued bool, err error) {
	job := verifyJob{app: st, device: device, chal: chal, reports: reports,
		dict: ds.dict, dictVersion: ds.version, aut: ds.aut,
		finalize: true, resp: make(chan verifyResult, 1)}
	r, enqueued, err := g.enqueue(job, deadline)
	if err != nil {
		return nil, enqueued, err
	}
	if r.err != nil {
		return nil, true, fmt.Errorf("server: malformed or inauthentic evidence: %w", r.err)
	}
	return r.verdict, true, nil
}

// enqueue hands one job to the worker pool and waits for its result, but
// never past the session deadline. enqueued reports whether the job
// reached the pool even when the wait itself times out.
func (g *Gateway) enqueue(job verifyJob, deadline time.Time) (res verifyResult, enqueued bool, err error) {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case g.jobs <- job:
	case <-timer.C:
		return verifyResult{}, false, errors.New("server: verification queue full past session deadline")
	}
	select {
	case r := <-job.resp:
		return r, true, nil
	case <-timer.C:
		// The worker finishes and delivers into the buffered channel;
		// only this session stops waiting.
		return verifyResult{}, true, errors.New("server: verification exceeded session deadline")
	}
}

func (g *Gateway) worker() {
	defer g.workers.Done()
	for job := range g.jobs {
		g.runJob(job)
	}
}

// runJob verifies one session's evidence on a worker goroutine. A panic
// out of the verifier (or an injected VerifyHook fault) is recovered into
// an ordinary verify error: one poisoned session must not take down a
// pool worker and with it the gateway's verification capacity. Every
// finalize job is delivered and breaker-recorded exactly once; slice-feed
// jobs are delivered only (their session's seal job does the recording).
func (g *Gateway) runJob(job verifyJob) {
	start := time.Now()
	var res verifyResult
	func() {
		defer func() {
			if p := recover(); p != nil {
				g.m.panicsRecovered.Inc()
				res = verifyResult{err: fmt.Errorf("server: verification panicked: %v", p)}
			}
		}()
		if h := g.cfg.VerifyHook; h != nil {
			h(job.app.name)
		}
		if job.exec != nil {
			res = job.exec()
		} else {
			res.verdict, res.err = job.app.verifier.VerifyWithAutomaton(job.chal, job.reports, job.dict, job.aut)
		}
	}()
	// A non-finalize job is one slice feed of a streaming session: its
	// result is advisory, so it gets the slice histogram and delivery,
	// nothing else — the session's seal job carries the authoritative
	// verdict through the full accounting below.
	if !job.finalize {
		g.m.sliceSeconds.ObserveDuration(time.Since(start))
		job.resp <- res
		return
	}
	g.m.verifySeconds.ObserveDuration(time.Since(start))
	// Decode-failure classification: malformed evidence surfaces as a
	// typed pipeline error, attested capture loss as an Inconclusive
	// verdict (the pipeline's WrapLoss rendered by the verifier).
	if code, ok := pipeline.CodeOf(res.err); ok {
		g.m.decodeErrors[code].Inc()
	} else if res.verdict != nil && !res.verdict.OK && res.verdict.Code == verify.ReasonInconclusive {
		g.m.decodeErrors[pipeline.WrapLoss].Inc()
	}
	if res.verdict != nil {
		// Phase attribution from the verifier's own clock; expand and
		// search are skipped when the phase did not run (no dictionary,
		// early verdict, verdict-cache hit).
		tm := res.verdict.Timing
		g.m.phase[phaseAuth].ObserveDuration(tm.Auth)
		if tm.Expand > 0 {
			g.m.phase[phaseExpand].ObserveDuration(tm.Expand)
		}
		if tm.Search > 0 {
			g.m.phase[phaseSearch].ObserveDuration(tm.Search)
		}
	}
	if opened, closed := job.app.brk.record(res.err != nil, time.Now()); opened {
		g.m.breakerOpens.Inc()
	} else if closed {
		g.m.breakerCloses.Inc()
	}
	job.resp <- res
	// Evidence-plane commit after delivery: the session never waits on
	// storage, and every outcome — acceptance, typed rejection, or
	// evidence error — leaves a hash-chained record.
	g.journalVerdict(job, res)
	if res.err == nil && res.verdict.OK {
		// Mine after delivery: the session is not kept waiting on
		// dictionary work.
		g.maybeMine(job.app, res.verdict)
	}
}

// maybeMine runs the online mining cadence for one accepted verdict: every
// MineEvery-th acceptance per app that missed the verdict cache (starting
// with the first) the consumed evidence is mined and new hot sub-paths are
// promoted into the app's live dictionary, to be delivered to the next
// sessions' provers.
//
// A cache hit is skipped without counting: the same expanded evidence
// under the same H_MEM already passed through here on a miss, Mine is a
// pure function of it, and the live dictionary only grows, so mining it
// again could never promote anything. The price is that evidence whose
// first sighting fell off the cadence is never mined while it stays
// cached, and a quarantined promotion is retried only on new evidence.
// Without a cache every acceptance counts.
func (g *Gateway) maybeMine(st *appState, vd *verify.Verdict) {
	if g.cfg.MineEvery <= 0 || vd.Timing.CacheHit {
		return
	}
	n := st.misses.Add(1)
	if (n-1)%uint64(g.cfg.MineEvery) != 0 {
		return
	}
	g.m.minedSessions.Inc()
	mined, err := speccfa.Mine(vd.Evidence, g.cfg.MinePaths, 2, 8)
	if err != nil || mined.Len() == 0 {
		return
	}
	g.promote(st, mined, vd)
}

// promote runs the promotion critical section for one mined dictionary:
// merge with the live dictionary, self-check, install.
func (g *Gateway) promote(st *appState, mined *speccfa.Dictionary, vd *verify.Verdict) {
	st.dictMu.Lock()
	defer st.dictMu.Unlock()
	cur := st.dict.Load()
	merged, added, err := speccfa.Merge(cur.dict, mined, g.cfg.MaxDictPaths)
	if err != nil || added == 0 {
		return
	}
	// Promotion self-check: the exact bytes that would go out in DICT
	// frames must decode back to a dictionary that round-trips this
	// session's evidence. A dictionary that fails (bit rot, encoder bug,
	// injected DictFault) is quarantined — the live dictionary stays on the
	// last good version and never reaches a prover handshake.
	encoded := merged.Encode()
	if f := g.cfg.DictFault; f != nil {
		encoded = f(encoded)
	}
	checked, err := speccfa.DecodeDictionary(encoded)
	if err != nil {
		g.m.dictQuarantines.Inc()
		return
	}
	rt, err := checked.Decompress(checked.Compress(vd.Evidence))
	if err != nil || !slices.Equal(rt, vd.Evidence) {
		g.m.dictQuarantines.Inc()
		return
	}
	// Store the dictionary decoded FROM the checked bytes: provers (DICT
	// frame) and the verifier (expansion) derive from identical bits. The
	// automaton is recompiled against the checked dictionary so the new
	// version ships as a consistent dictionary+machine pair. The version is
	// journaled before it is published, so its record precedes every
	// verdict that names it (replay resolves versions in journal order).
	next := &dictState{version: cur.version + 1, dict: checked, encoded: encoded, aut: st.compileAut(checked)}
	g.journalDict(st.name, next.version, encoded)
	st.dict.Store(next)
	g.m.dictPromotions.Add(uint64(added))
}

// ObserveProverRetries folds prover-side retry counts into the gateway
// registry — deployments (and the serve selftest) report how many extra
// attempts their client retry loops (remote.Client.AttestDial) spent
// reaching a verdict.
func (g *Gateway) ObserveProverRetries(n uint64) {
	if n > 0 {
		g.m.proverRetries.Add(n)
	}
}
