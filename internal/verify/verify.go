// Package verify implements the Verifier side of RAP-Track: report-chain
// authentication, H_MEM validation, and lossless control-flow path
// reconstruction from CFLog evidence.
//
// # Reconstruction
//
// Reconstruction is an abstract replay over the linked image. Deterministic
// transfers (direct branches, calls, leaf returns) are followed statically;
// every non-deterministic point consumes evidence:
//
//   - indirect call/jump and monitored return stubs consume one MTB packet
//     whose source must be the stub's recording instruction;
//   - trampolined conditional branches are decided by presence: if the next
//     packet originates from the branch's stub the taken path was followed,
//     otherwise the fall-through was (forward-loop trampolines encode the
//     NOT-taken direction, §IV-C3.3);
//   - optimized simple loops consume one engine-appended loop-condition
//     packet at entry, from which the verifier recomputes the trip count.
//
// Because conditional evidence is presence-encoded (the untaken direction
// leaves no packet), a packet can in principle belong to a later dynamic
// instance of the same site; naive greedy matching mis-parses recursive
// programs, and plain backtracking search is exponential. The verifier
// therefore performs *pushdown summarization* (context-free reachability,
// as in interprocedural dataflow analysis): frame walks are memoized on
// (pc, evidence cursor, loop state) and yield sets of frame *outcomes* —
// "returns deterministically", "returns consuming a packet with
// destination D", or "halts" — iterated to a least fixed point. All
// cross-frame interaction is captured by the outcome's return destination,
// which the caller matches against its own call-site successor; this is
// simultaneously the reconstruction mechanism and the ROP policy check. A
// report is accepted iff some policy-conforming derivation explains the
// complete evidence stream; the witness path is then materialized from the
// derivation links.
//
// Replay policies detect the runtime attacks CFA targets: return
// destinations must match the call-site successor (ROP), indirect-call
// destinations must be function entries (JOP), table jumps must stay
// inside their function, and the evidence stream must be exhausted
// exactly.
//
// # Fast path
//
// Verifiers in a gateway share a [Cache] (see WithCache) of whole-stream
// verdicts, keyed by H_MEM and the expanded evidence, so a fleet of
// devices running identical firmware verifies each distinct stream once.
package verify

import (
	"crypto/sha256"
	"fmt"
	"time"

	"raptrack/internal/asm"
	"raptrack/internal/attest"
	"raptrack/internal/linker"
	"raptrack/internal/speccfa"
	"raptrack/internal/trace"
	"raptrack/internal/verify/automaton"
)

// PhaseTiming attributes one verification's wall clock to its phases, so
// a gateway's observability layer can report where attestation time goes
// without instrumenting this package from outside.
type PhaseTiming struct {
	// Auth covers report-chain authentication and CFLog assembly.
	Auth time.Duration
	// Expand covers SpecCFA marker expansion (zero without a dictionary).
	Expand time.Duration
	// Search covers the pushdown reconstruction (zero on verdict-cache
	// hits and on verdicts decided before reconstruction, e.g. an H_MEM
	// mismatch).
	Search time.Duration
	// CacheHit marks a verdict served whole from the cross-session cache.
	CacheHit bool
}

// Edge is one reconstructed control transfer. It aliases the automaton
// package's edge type so witness paths flow between the engines without
// conversion.
type Edge = automaton.Edge

// Verdict is the outcome of verifying one attestation session.
type Verdict struct {
	OK bool
	// Code classifies the rejection (ReasonNone when OK); Detail carries
	// the human-readable specifics of the first recorded contradiction.
	Code   ReasonCode
	Detail string
	// FailPC is the replay PC at the first recorded contradiction (0 when
	// OK, or when the failure was global, e.g. an H_MEM mismatch).
	FailPC uint32

	// Evidence statistics.
	Packets       int    // packets in the assembled CFLog
	PacketsUsed   int    // packets consumed by the accepted derivation
	Instrs        uint64 // abstract instructions walked during the search
	Transfers     uint64 // control transfers on the accepted path
	LoopsReplayed uint64 // optimized-loop trip counts applied on the path
	Passes        int    // node evaluations performed by the search

	// Path holds the reconstructed transfer sequence, capped at PathCap.
	Path []Edge

	// Evidence is the decompressed packet stream the verdict judged
	// (populated by Verify/VerifyWithDictionary and Session.Seal, nil from
	// ReplayPackets). Gateways mine it for hot sub-paths; treat as
	// read-only.
	Evidence []trace.Packet

	// Timing attributes the verification wall clock per phase (populated
	// by Verify/VerifyWithDictionary; zero from ReplayPackets).
	Timing PhaseTiming
}

// Reason renders the failure cause as "code: detail" ("" when OK).
func (vd *Verdict) Reason() string {
	if vd.OK {
		return ""
	}
	if vd.Detail == "" {
		return vd.Code.String()
	}
	return vd.Code.String() + ": " + vd.Detail
}

// Verifier validates attestation evidence for one application. It holds
// the golden linked artifact (the Verifier runs the same offline phase on
// the published binary) and the report authenticator.
//
// A Verifier is immutable after New and safe for concurrent use: every
// Verify/ReplayPackets call allocates its own search state, so one
// Verifier per application can be shared across all gateway sessions.
// Derive a reconfigured copy with [Verifier.With].
type Verifier struct {
	link    *linker.Output
	auth    attest.Authenticator
	hmem    [sha256.Size]byte
	entries map[uint32]bool // function entry addresses (indirect-call policy)
	opts    options
	aut     *automaton.Machine // compiled fast path (nil: interpreter only)
}

// New builds a Verifier for the linked artifact, configured by functional
// options (see WithMaxInstrs, WithPathCap, WithSpeculation, WithCache,
// WithAutomaton). With no options the defaults are a 500M instruction
// budget, 4096 path edges, no speculation, no cache and the automaton on.
func New(link *linker.Output, auth attest.Authenticator, opts ...Option) *Verifier {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	v := &Verifier{
		link:    link,
		auth:    auth,
		hmem:    link.Image.Hash(),
		entries: make(map[uint32]bool),
		opts:    o,
	}
	for name, r := range link.Image.FuncRanges {
		if name == linker.MTBARFunc {
			continue
		}
		v.entries[r.Base] = true
	}
	if o.automaton {
		// Compile failures (no entry point, register overflow) leave the
		// interpreter in charge; it reports them through its own verdicts.
		if m, err := automaton.Compile(link, o.spec); err == nil {
			v.aut = m
		}
	}
	return v
}

// ExpectedHMem returns the golden program measurement.
func (v *Verifier) ExpectedHMem() [sha256.Size]byte { return v.hmem }

// Verify authenticates the report chain against chal and reconstructs the
// execution path, expanding markers with the constructor-provisioned
// dictionary. A nil error with Verdict.OK == false means the evidence was
// well-formed but attests a disallowed execution (attack detected);
// errors are reserved for malformed/inauthentic evidence.
func (v *Verifier) Verify(chal attest.Challenge, reports []*attest.Report) (*Verdict, error) {
	return v.VerifyWithDictionary(chal, reports, v.opts.spec)
}

// VerifyWithDictionary is Verify with an explicit SpecCFA dictionary for
// this session (nil disables marker expansion), overriding the
// constructor-provisioned one. Gateways negotiating a live, mined
// dictionary per session use this entry point.
//
// The verdict cache is dictionary-independent: caching keys on the
// decompressed stream, so promoting new sub-paths never invalidates it.
func (v *Verifier) VerifyWithDictionary(chal attest.Challenge, reports []*attest.Report, dict *speccfa.Dictionary) (*Verdict, error) {
	return v.VerifyWithAutomaton(chal, reports, dict, v.aut)
}

// hmemMismatch renders the pre-reconstruction firmware-mismatch verdict.
func (v *Verifier) hmemMismatch(hmem [sha256.Size]byte, tm PhaseTiming) *Verdict {
	return &Verdict{
		OK:     false,
		Code:   ReasonHMemMismatch,
		Detail: fmt.Sprintf("H_MEM mismatch: prover code differs from golden image (got %x.., want %x..)", hmem[:8], v.hmem[:8]),
		Timing: tm,
	}
}

// ReplayPackets reconstructs a path directly from packets with the
// interpreter (testing and tooling aid): it skips authentication and
// never consults the verdict cache.
func (v *Verifier) ReplayPackets(packets []trace.Packet) *Verdict {
	return v.reconstruct(packets)
}

// retToHaltSentinel mirrors the CPU's initial-LR halt sentinel (with the
// Thumb bit cleared, as the hardware records it).
const retToHaltSentinel = 0xffff_fffe

func inRange(r asm.Range, addr uint32) bool { return addr >= r.Base && addr < r.Limit }
