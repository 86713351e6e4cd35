// Prover-side resilience: typed transient-vs-fatal classification of
// session failures, and the retry loop behind Client.AttestDial —
// exponential backoff with jitter, a fresh session (and therefore a
// fresh gateway challenge) per attempt, and sanitized BUSY retry-after
// hints honored as the backoff floor.
package remote

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"
)

// ErrorClass partitions session failures for retry decisions.
type ErrorClass uint8

const (
	// ClassNone classifies a nil error.
	ClassNone ErrorClass = iota
	// ClassTransient marks transport-shaped failures — sheds, stalls,
	// truncations, corrupted frames, timeouts. The fault may not recur,
	// so a fresh session is worth the attempt.
	ClassTransient
	// ClassFatal marks semantic failures — protocol version mismatch, an
	// unprovisioned application. An identical retry fails identically.
	ClassFatal
)

func (c ErrorClass) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassTransient:
		return "transient"
	default:
		return "fatal"
	}
}

// Classify types a session error for retry purposes. The default is
// transient: evidence integrity never depends on the transport (any
// tampering is caught by the report authenticators server-side and
// surfaces here as a FAIL frame or decode error), so retrying an
// unrecognized failure is safe — it can only cost budget, not soundness.
func Classify(err error) ErrorClass {
	if err == nil {
		return ClassNone
	}
	if errors.Is(err, ErrProtocolMismatch) {
		return ClassFatal
	}
	var pf *PeerFailError
	if errors.As(err, &pf) && pf.Fatal() {
		return ClassFatal
	}
	return ClassTransient
}

// RetryPolicy tunes Client.AttestDial's retry loop (WithRetry). The zero
// value selects the documented defaults.
type RetryPolicy struct {
	// MaxAttempts bounds total sessions tried, first included (default 5).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// retry (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 2s).
	MaxDelay time.Duration
	// Jitter spreads each delay uniformly over ±Jitter×delay to
	// de-synchronize a fleet retrying against the same gateway (default
	// 0.2 when Rand is set). Jitter requires Rand: without a caller-owned
	// source the spread could not be made deterministic for tests.
	Jitter float64
	// Rand drives the jitter. Nil disables jitter entirely.
	Rand *rand.Rand
	// AttemptTimeout bounds one attempt's wall clock; on expiry the
	// attempt's connection is force-closed, failing the attempt with a
	// transient error (default 0: unbounded). This is the prover's only
	// escape from a read pinned forever — e.g. a corrupted frame length
	// field promising a payload the peer will never send.
	AttemptTimeout time.Duration
	// Sleep replaces time.Sleep between attempts (tests). Nil: time.Sleep.
	Sleep func(time.Duration)
	// OnRetry, when non-nil, observes each scheduled retry: the attempt
	// that just failed (1-based), its error, and the upcoming delay.
	OnRetry func(attempt int, err error, delay time.Duration)
	// Observe, when non-nil, receives the final RetryStats exactly once
	// per retrying AttestDial call — on success, fatal abort, or exhausted
	// budget alike. This is the observability layer's tap: deployments
	// fold attempts and BUSY hints into a metrics registry here without
	// threading counters through every call site.
	Observe func(RetryStats)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 5
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// MaxBusyHint is the ceiling on a BUSY retry-after hint a prover will
// honor. The hint rides the wire as a u32 millisecond count, so a
// corrupted frame can promise a ~49-day backoff; any hint beyond this
// ceiling is treated as corrupted and discarded rather than letting a
// flipped bit stall the prover.
const MaxBusyHint = 2 * time.Second

// ClampBusyHint sanitizes a parsed BUSY retry-after hint: values that
// are non-positive or implausibly large (beyond MaxBusyHint — a
// corrupted u32 on the wire) collapse to 0, meaning "no usable hint".
// This is the single clamp every hint consumer shares (RetryPolicy
// here, the fleet simulator's retry profiles).
func ClampBusyHint(hint time.Duration) time.Duration {
	if hint <= 0 || hint > MaxBusyHint {
		return 0
	}
	return hint
}

// delay computes the backoff before retrying after the given 1-based
// failed attempt, honoring a (sanitized) BUSY retry-after hint as the
// backoff floor.
func (p RetryPolicy) delay(attempt int, err error) (d time.Duration, hinted bool) {
	d = p.BaseDelay << (attempt - 1)
	if d > p.MaxDelay || d <= 0 { // <=0: shift overflow
		d = p.MaxDelay
	}
	var be *BusyError
	if errors.As(err, &be) {
		if hint := ClampBusyHint(be.RetryAfter); hint > 0 {
			hinted = true
			if hint > d {
				d = hint
			}
		}
	}
	if p.Rand != nil && p.Jitter > 0 {
		spread := 1 + p.Jitter*(2*p.Rand.Float64()-1)
		d = time.Duration(float64(d) * spread)
	}
	return d, hinted
}

// RetryStats summarizes one Client.AttestDial call.
type RetryStats struct {
	Attempts  int           // sessions dialed (>= 1)
	Retries   int           // Attempts - 1
	BusyHints int           // retries whose delay honored a BUSY retry-after hint
	Waited    time.Duration // total backoff scheduled between attempts
}

// attestRetry drives gateway sessions until one completes, a fatal error
// is hit, or the attempt budget runs out. Each attempt dials a fresh
// connection and runs session on it — the gateway issues a fresh
// challenge per session, so no nonce is ever reused across retries —
// with exponential backoff (plus optional jitter) in between. A BUSY
// shed whose frame carries a plausible retry-after hint floors the next
// delay at the hint (see ClampBusyHint).
//
// A fatal classification (see Classify) aborts only once *confirmed* by a
// second consecutive fatal attempt. A genuinely unprovisioned app or
// version skew fails identically — and cheaply, on the pre-run handshake
// — every time; a wire corruption that merely reads as fatal (one flipped
// HELO bit turning the app name unrecognizable) does not recur, so a
// single confirmation retry converts a spurious hard failure back into a
// transient one without ever retrying a real fatal more than once.
//
// The returned GatewayVerdict may still report a rejection; "the session
// completed" and "the evidence attested a benign path" stay as separate
// concerns, exactly as in Client.Attest.
func (p *ProverEndpoint) attestRetry(dial func() (io.ReadWriteCloser, error), pol RetryPolicy, session func(io.ReadWriter) (GatewayVerdict, error)) (GatewayVerdict, RetryStats, error) {
	pol = pol.withDefaults()
	var st RetryStats
	if pol.Observe != nil {
		defer func() { pol.Observe(st) }()
	}
	var lastErr error
	fatalStreak := 0
	for attempt := 1; ; attempt++ {
		st.Attempts = attempt
		st.Retries = attempt - 1
		conn, err := dial()
		if err == nil {
			var timer *time.Timer
			if pol.AttemptTimeout > 0 {
				timer = time.AfterFunc(pol.AttemptTimeout, func() { conn.Close() })
			}
			var gv GatewayVerdict
			gv, err = session(conn)
			if timer != nil {
				timer.Stop()
			}
			conn.Close()
			if err == nil {
				return gv, st, nil
			}
		}
		lastErr = err
		if Classify(err) == ClassFatal {
			if fatalStreak++; fatalStreak >= 2 {
				return GatewayVerdict{}, st, err
			}
		} else {
			fatalStreak = 0
		}
		if attempt == pol.MaxAttempts {
			break
		}
		d, hinted := pol.delay(attempt, err)
		if hinted {
			st.BusyHints++
		}
		st.Waited += d
		if pol.OnRetry != nil {
			pol.OnRetry(attempt, err, d)
		}
		pol.Sleep(d)
	}
	return GatewayVerdict{}, st, fmt.Errorf("remote: attestation gave up after %d attempts: %w", st.Attempts, lastErr)
}
