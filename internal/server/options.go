package server

import (
	"runtime"
	"time"

	"raptrack/internal/journal"
	"raptrack/internal/obs"
	"raptrack/internal/speccfa"
)

// config tunes a Gateway; zero values select the documented defaults.
// It is internal plumbing behind the functional options ([New] with
// [WithSessionSlots], [WithVerifyWorkers], [WithCache], [WithMining],
// [WithFaults], [WithObserver] and friends) — the former exported Config
// struct and its NewFromConfig shim are gone.
type config struct {
	// MaxSessions caps concurrently served sessions; further connections
	// are shed with a BUSY frame (default 64).
	MaxSessions int
	// VerifyWorkers sizes the reconstruction worker pool (default
	// GOMAXPROCS).
	VerifyWorkers int
	// VerifyQueue bounds verification jobs waiting for a worker; beyond
	// it, session goroutines block — backpressure — until their session
	// deadline (default 2 * VerifyWorkers).
	VerifyQueue int
	// SessionTimeout bounds one whole session, connection to verdict
	// (default 30s).
	SessionTimeout time.Duration
	// IOTimeout bounds each read/write (default 10s).
	IOTimeout time.Duration
	// OnSessionError, when non-nil, observes per-session failures
	// (diagnostics; the session is already counted in the snapshot).
	OnSessionError func(remoteAddr string, err error)

	// BusyRetryAfter is the retry-after hint carried in capacity-shed BUSY
	// frames (0: no hint — the frame is wire-identical to protocol v2's
	// empty BUSY, so old provers are unaffected).
	BusyRetryAfter time.Duration
	// BreakerThreshold opens an app's circuit breaker after this many
	// consecutive verification *errors* — malformed/inauthentic evidence or
	// recovered verify panics, never attack verdicts (0: default 8;
	// negative: breaker disabled).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker sheds the app's sessions
	// before admitting a half-open probe (default 2s).
	BreakerCooldown time.Duration

	// VerifyHook, when non-nil, runs on the worker goroutine immediately
	// before each verification (chaos injection: panics and stalls land
	// exactly where a verifier bug would).
	VerifyHook func(app string)
	// DictFault, when non-nil, may rewrite a mined dictionary's encoded
	// bytes before the promotion self-check (chaos injection for the
	// quarantine path).
	DictFault func([]byte) []byte

	// CacheBytes bounds the per-app verdict cache (0: 64 MiB default;
	// negative: no cache is attached at Register).
	CacheBytes int64
	// MineEvery runs speccfa.Mine on the evidence of every MineEvery-th
	// accepted session per app that missed the verdict cache, starting
	// with the first (0: default 16; negative: mining off). Without a
	// cache every accepted session counts.
	MineEvery int
	// MinePaths caps the sub-paths one mining pass may surface (default 8).
	MinePaths int
	// MaxDictPaths caps the live dictionary a mining promotion may grow to
	// (default 32; hard limit speccfa.MaxPaths).
	MaxDictPaths int

	// Journal, when non-nil, is the durable evidence plane: every session
	// verdict (with its complete evidence) and every live dictionary
	// version is committed through it. Journal failure never fails a
	// session — the journal degrades internally and the gateway keeps
	// serving.
	Journal *journal.Journal
}

func (c config) withDefaults() config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.VerifyWorkers <= 0 {
		c.VerifyWorkers = runtime.GOMAXPROCS(0)
	}
	if c.VerifyQueue <= 0 {
		c.VerifyQueue = 2 * c.VerifyWorkers
	}
	if c.SessionTimeout <= 0 {
		c.SessionTimeout = 30 * time.Second
	}
	if c.IOTimeout <= 0 {
		c.IOTimeout = 10 * time.Second
	}
	if c.MineEvery == 0 {
		c.MineEvery = 16
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 8
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.MinePaths <= 0 {
		c.MinePaths = 8
	}
	if c.MaxDictPaths <= 0 || c.MaxDictPaths > speccfa.MaxPaths {
		c.MaxDictPaths = 32
	}
	return c
}

// settings is the resolved constructor input: the config plus the
// observer attachment.
type settings struct {
	cfg config
	obs *obs.Observer
}

// Option configures a Gateway at construction ([New]).
type Option func(*settings)

// WithSessionSlots caps concurrently served sessions; connections beyond
// the cap are shed with one BUSY frame (default 64).
func WithSessionSlots(n int) Option {
	return func(s *settings) { s.cfg.MaxSessions = n }
}

// WithVerifyWorkers sizes the reconstruction worker pool and its queue.
// workers defaults to GOMAXPROCS when <= 0; queue bounds jobs waiting for
// a worker — beyond it session goroutines block (backpressure) until
// their session deadline — and defaults to 2*workers when <= 0.
func WithVerifyWorkers(workers, queue int) Option {
	return func(s *settings) {
		s.cfg.VerifyWorkers = workers
		s.cfg.VerifyQueue = queue
	}
}

// WithTimeouts bounds one whole session (connection to verdict, default
// 30s) and each individual read/write (default 10s).
func WithTimeouts(session, io time.Duration) Option {
	return func(s *settings) {
		s.cfg.SessionTimeout = session
		s.cfg.IOTimeout = io
	}
}

// WithBusyRetryAfter sets the retry-after hint carried in capacity-shed
// BUSY frames (0: no hint).
func WithBusyRetryAfter(d time.Duration) Option {
	return func(s *settings) { s.cfg.BusyRetryAfter = d }
}

// WithBreaker tunes the per-app circuit breaker: threshold consecutive
// verification errors open it (0: default 8; negative: disabled), and an
// open breaker sheds the app's sessions for cooldown before admitting a
// half-open probe (<= 0: default 2s).
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(s *settings) {
		s.cfg.BreakerThreshold = threshold
		s.cfg.BreakerCooldown = cooldown
	}
}

// WithCache bounds the per-app verdict cache in bytes (0: 64 MiB
// default; negative: no cache is attached at Register).
func WithCache(bytes int64) Option {
	return func(s *settings) { s.cfg.CacheBytes = bytes }
}

// WithMining tunes online SpecCFA mining: every every-th accepted session
// per app that missed the verdict cache is mined (0: default 16;
// negative: mining off), each pass surfaces at most paths sub-paths
// (<= 0: default 8), and the live dictionary may grow to maxDictPaths
// (<= 0: default 32, hard limit speccfa.MaxPaths). Verdict-cache hits are
// not counted: their evidence was mined, or skipped by the cadence, when
// it first missed, and mining it again could not promote anything. With
// the cache off (WithCache(-1)) every accepted session counts.
func WithMining(every, paths, maxDictPaths int) Option {
	return func(s *settings) {
		s.cfg.MineEvery = every
		s.cfg.MinePaths = paths
		s.cfg.MaxDictPaths = maxDictPaths
	}
}

// WithFaults installs the chaos-injection hooks: verifyHook runs on the
// worker goroutine immediately before each verification, and dictFault
// may rewrite a mined dictionary's encoded bytes before the promotion
// self-check. Either may be nil.
func WithFaults(verifyHook func(app string), dictFault func([]byte) []byte) Option {
	return func(s *settings) {
		s.cfg.VerifyHook = verifyHook
		s.cfg.DictFault = dictFault
	}
}

// WithObserver attaches the observability layer: the observer's registry
// receives every gateway metric family at construction time, and its
// trace rings receive one span trace per session. Without this option
// the gateway creates a private observer, so Snapshot and span tracing
// work regardless; pass one explicitly to serve the registry over an
// admin endpoint (obs.AdminHandler) or to pre-register your own families
// alongside the gateway's.
//
// One observer serves one gateway: registering a second gateway on the
// same observer panics on the duplicate metric names.
func WithObserver(o *obs.Observer) Option {
	return func(s *settings) { s.obs = o }
}

// WithJournal attaches the durable evidence plane: every session verdict
// — acceptance, rejection with its typed reason, or evidence error — is
// committed to j together with the complete evidence bytes, and every
// live dictionary version (registration seed and each mining promotion)
// is journaled so a later replay expands each session with exactly the
// dictionary its prover compressed with. One committer goroutine owns
// j: verify workers deliver each verdict, hand its record to a bounded
// queue and take their next job, so they block only on a full queue,
// never on an fsync. A verdict is therefore delivered before its record
// is durable; raptrack_journal_queue_depth bounds what a crash can lose.
// The gateway never dies on journal failure: a broken disk degrades the
// journal (Health reports it; records shed to its bounded ring) while
// sessions keep verifying. Close the gateway before j.
func WithJournal(j *journal.Journal) Option {
	return func(s *settings) { s.cfg.Journal = j }
}

// WithSessionErrorHandler observes per-session failures (diagnostics;
// the session is already counted in the snapshot).
func WithSessionErrorHandler(fn func(remoteAddr string, err error)) Option {
	return func(s *settings) { s.cfg.OnSessionError = fn }
}
