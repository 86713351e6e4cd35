package verify

import "raptrack/internal/speccfa"

// options holds the resolved Verifier configuration. It is immutable
// after New/With; derived Verifiers copy it by value.
type options struct {
	maxInstrs uint64
	pathCap   int
	automaton bool
	spec      *speccfa.Dictionary
	cache     *Cache
}

func defaultOptions() options {
	return options{
		maxInstrs: 500_000_000,
		pathCap:   4096,
		automaton: true,
	}
}

// Option configures a Verifier at construction (verify.New) or when
// deriving one (Verifier.With).
type Option func(*options)

// WithMaxInstrs bounds the total abstract work of one reconstruction
// (default 500M). n == 0 restores the default.
func WithMaxInstrs(n uint64) Option {
	return func(o *options) {
		if n == 0 {
			n = 500_000_000
		}
		o.maxInstrs = n
	}
}

// WithPathCap bounds the recorded witness path edges (default 4096);
// pass a negative value to disable path recording entirely.
func WithPathCap(n int) Option {
	return func(o *options) {
		if n == 0 {
			n = 4096
		}
		o.pathCap = n
	}
}

// WithSpeculation provisions the SpecCFA sub-path dictionary used to
// expand marker packets before reconstruction (must match the Prover's
// dictionary). Per-session dictionaries — a gateway negotiating a live,
// mined dictionary — go through VerifyWithDictionary instead.
func WithSpeculation(d *speccfa.Dictionary) Option {
	return func(o *options) { o.spec = d }
}

// WithAutomaton toggles the table-driven fast path (default on): the
// compiled automaton decodes the accept path, and the interpreter — the
// reference oracle — renders every non-accept verdict. Off means every
// verification runs the interpretive pushdown search, as before the
// automaton existed; the differential conformance suite runs both.
func WithAutomaton(on bool) Option {
	return func(o *options) { o.automaton = on }
}

// WithCache attaches a cross-session verdict cache: the whole-chain entry
// points (Verify, VerifyWithDictionary, VerifyWithAutomaton and
// Session.Seal) memoize each verdict under SHA-256(H_MEM ‖ expanded
// evidence), so sessions that repeat a stream skip its verification. A
// hit returns the verdict the miss rendered, identical in every field but
// Timing and Evidence, which describe the call. The cache may be shared
// by many Verifiers and is safe for concurrent use; nil detaches.
func WithCache(c *Cache) Option {
	return func(o *options) { o.cache = c }
}

// With derives a Verifier sharing v's golden artifact and authenticator
// but with opts applied on top of v's configuration. The receiver is not
// modified (Verifiers stay immutable after construction).
func (v *Verifier) With(opts ...Option) *Verifier {
	nv := *v
	for _, opt := range opts {
		opt(&nv.opts)
	}
	nv.reconcileAutomaton()
	return &nv
}

// Cache returns the attached verdict cache (nil when caching is off).
func (v *Verifier) Cache() *Cache { return v.opts.cache }

// Speculation returns the constructor-provisioned SpecCFA dictionary
// (nil when none). Gateways use it to seed their live dictionary.
func (v *Verifier) Speculation() *speccfa.Dictionary { return v.opts.spec }
