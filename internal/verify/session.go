package verify

import (
	"time"

	"raptrack/internal/attest"
	"raptrack/internal/speccfa"
	"raptrack/internal/trace"
	"raptrack/internal/trace/pipeline"
	"raptrack/internal/verify/automaton"
)

// SliceStatus classifies one evidence slice of a streaming session.
type SliceStatus uint8

const (
	// SliceOK: the chain is authentic so far and at least one benign
	// derivation is consistent with the evidence prefix.
	SliceOK SliceStatus = iota
	// SliceUnchecked: the chain is authentic so far but incremental path
	// checking is unavailable for this session (no compiled automaton, a
	// dictionary the machine is not bound to, or the prefix walk fell
	// back); only Seal judges the path.
	SliceUnchecked
	// SliceInconclusive: the signed reports attest detectable trace loss,
	// so the sealed verdict is already known to be ReasonInconclusive
	// (never OK); the device should re-attest.
	SliceInconclusive
	// SliceSuspect: no benign derivation explains any extension of the
	// evidence prefix — an early, sound compromise alarm. The sealed
	// verdict renders the authoritative rejection code and detail.
	SliceSuspect
	// SliceReject: the evidence is definitively rejected at the chain
	// level (authentication, ordering, H_MEM) — exact and final; Seal
	// returns the identical error or verdict.
	SliceReject
)

var sliceStatusNames = [...]string{
	SliceOK:           "ok",
	SliceUnchecked:    "unchecked",
	SliceInconclusive: "inconclusive",
	SliceSuspect:      "suspect",
	SliceReject:       "reject",
}

func (s SliceStatus) String() string {
	if int(s) < len(sliceStatusNames) {
		return sliceStatusNames[s]
	}
	return "invalid"
}

// Definitive reports whether the sealed outcome is already decided: a
// reject or suspect slice can never become an accept, and an
// inconclusive one seals inconclusive.
func (s SliceStatus) Definitive() bool {
	return s == SliceReject || s == SliceSuspect || s == SliceInconclusive
}

// SliceVerdict is Session.Feed's per-slice judgment. It is advisory
// except where Status.Definitive() holds: the authoritative whole-session
// verdict (bit-identical to Verifier.Verify on the same chain) comes from
// Seal.
type SliceVerdict struct {
	// Seq is the slice's position in the chain (0-based).
	Seq    int
	Status SliceStatus
	// Code/Detail explain a non-OK slice. For SliceReject they match what
	// Seal will produce; for SliceSuspect/SliceInconclusive they are the
	// early advisory form.
	Code   ReasonCode
	Detail string
	// Final echoes the report's final flag.
	Final bool
	// Packets counts evidence packets decoded for prefix checking so far
	// (compressed count under a dictionary; 0 when unchecked).
	Packets int
}

// sessionConfig resolves Begin's options.
type sessionConfig struct {
	dict        *speccfa.Dictionary
	dictSet     bool
	aut         *Automaton
	autSet      bool
	sliceChecks bool
}

// SessionOption configures one streaming session at Begin.
type SessionOption func(*sessionConfig)

// SessionDictionary sets the SpecCFA dictionary for this session's marker
// expansion, overriding the Verifier's constructor-provisioned one (as
// VerifyWithDictionary does for whole chains).
func SessionDictionary(d *speccfa.Dictionary) SessionOption {
	return func(c *sessionConfig) { c.dict, c.dictSet = d, true }
}

// SessionAutomaton sets the compiled machine snapshot for this session,
// overriding the Verifier's own (gateways pair each dictionary snapshot
// with the machine compiled for it). nil forces the interpreter.
func SessionAutomaton(a *Automaton) SessionOption {
	return func(c *sessionConfig) { c.aut, c.autSet = a, true }
}

// SessionSliceChecks toggles per-slice work (default on): incremental
// evidence decoding and the resumable prefix walk. Off, Feed only runs
// the incremental chain authentication and every path judgment waits for
// Seal — this is how the whole-chain Verify entry points ride the session
// API without paying for streaming they do not need.
func SessionSliceChecks(on bool) SessionOption {
	return func(c *sessionConfig) { c.sliceChecks = on }
}

// Session is a resumable verification: evidence slices (partial reports)
// are fed as they arrive, each judged against the running chain state —
// incremental authentication via attest.ChainAssembler, and a suspended
// automaton walk (automaton.StreamDecoder) whose cursor, speculative
// checkpoint ring and loop bindings persist between slices — and Seal
// renders the whole-session verdict bit-identical to Verifier.Verify on
// the same report chain. The whole-chain entry points are themselves a
// Begin/Feed/Seal loop, so there is exactly one verification code path.
//
// A Session is single-use scratch for one attestation session: not safe
// for concurrent use. Reports handed to Feed are retained until Seal.
type Session struct {
	v    *Verifier
	chal attest.Challenge
	dict *speccfa.Dictionary
	aut  *Automaton

	asm     *attest.ChainAssembler
	reports []*attest.Report
	wraps   uint64
	dropped uint64
	auth    time.Duration // accumulated chain-authentication time

	sliceChecks bool
	sd          *automaton.StreamDecoder // nil: prefix checking unavailable
	fedBytes    int                      // log bytes already decoded for sd
	pkBuf       []trace.Packet           // per-slice decode scratch (reused)

	// alarm latches the first definitive non-OK slice judgment; later
	// slices echo it (the outcome cannot improve).
	alarm *SliceVerdict

	chainErr error // first chain violation (sticky; Seal returns it)

	sealed  bool
	verdict *Verdict
	sealErr error
}

// Begin opens a streaming verification session against chal. The
// Verifier's golden H_MEM and authenticator anchor the session; options
// override the dictionary and automaton snapshot (gateways) or disable
// per-slice checking (the whole-chain entry points).
func (v *Verifier) Begin(chal attest.Challenge, opts ...SessionOption) *Session {
	cfg := sessionConfig{sliceChecks: true}
	for _, opt := range opts {
		opt(&cfg)
	}
	dict := v.opts.spec
	if cfg.dictSet {
		dict = cfg.dict
	}
	aut := v.aut
	if cfg.autSet {
		aut = cfg.aut
	}
	if !v.opts.automaton {
		aut = nil
	}
	s := &Session{
		v:           v,
		chal:        chal,
		dict:        dict,
		aut:         aut,
		asm:         attest.NewChainAssembler(chal, v.auth),
		sliceChecks: cfg.sliceChecks,
	}
	// Prefix checking needs a machine whose marker tables match this
	// session's dictionary (the uncompressed case binds trivially). The
	// walk records the witness path at the Verifier's cap so Seal can
	// finish the suspended walk in place of a second whole-stream decode.
	if s.sliceChecks && aut != nil && (dict.Len() == 0 || aut.Dictionary() == dict) {
		s.sd = aut.Stream(v.opts.pathCap, v.opts.maxInstrs)
	}
	return s
}

// Feed verifies r as the session's next evidence slice. The returned
// SliceVerdict is this slice's judgment; see SliceStatus for which
// judgments are definitive. Feeding after Seal reports SliceReject.
func (s *Session) Feed(r *attest.Report) SliceVerdict {
	sv := SliceVerdict{Seq: s.asm.Len(), Final: r.Final}
	if s.sealed {
		sv.Status = SliceReject
		sv.Detail = "session already sealed"
		return sv
	}
	if s.chainErr != nil {
		// The chain is already broken; the batch loop would never have
		// examined this report either.
		return s.echoAlarm(sv)
	}
	start := time.Now()
	err := s.asm.Add(r)
	s.auth += time.Since(start)
	if err != nil {
		s.chainErr = err
		sv.Status = SliceReject
		sv.Detail = err.Error()
		s.alarm = &sv
		return sv
	}
	s.reports = append(s.reports, r)
	s.wraps += uint64(r.Wraps)
	s.dropped += uint64(r.Dropped)

	// A definitive alarm (H_MEM mismatch, trace loss) is echoed, but the
	// chain keeps assembling above: a later report can still break it, and
	// Seal must judge exactly the chain Verify would.
	if s.alarm != nil {
		return s.echoAlarm(sv)
	}

	// The firmware measurement is signed into every report and the chain
	// check pinned it constant, so a mismatch is already definitive.
	if hmem := s.asm.HMem(); hmem != s.v.hmem {
		hv := s.v.hmemMismatch(hmem, PhaseTiming{})
		sv.Status = SliceReject
		sv.Code = hv.Code
		sv.Detail = hv.Detail
		s.alarm = &sv
		return sv
	}

	if !s.sliceChecks {
		sv.Status = SliceUnchecked
		return sv
	}

	// Signed loss evidence: the stream cannot be losslessly reconstructed,
	// so the sealed verdict is ReasonInconclusive regardless of the path.
	// Prefix checking against a lossy stream would raise false alarms —
	// drop it.
	if s.wraps > 0 || s.dropped > 0 {
		s.sd = nil
		sv.Status = SliceInconclusive
		sv.Code = ReasonInconclusive
		sv.Detail = "signed reports attest trace loss; session will seal inconclusive"
		s.alarm = &sv
		return sv
	}

	if s.sd == nil {
		sv.Status = SliceUnchecked
		return sv
	}

	// Advance the suspended walk over the newly completed packets. Only
	// whole 8-byte records are fed; a trailing fragment (which on an
	// honest prover never spans slices) waits for the next slice, and the
	// sealed pipeline judges the exact byte stream either way.
	log := s.asm.Log()
	aligned := len(log) - len(log)%trace.PacketSize
	chunk := log[s.fedBytes:aligned]
	pk, derr := pipeline.AppendMTB(s.pkBuf[:0], chunk)
	if derr != nil {
		s.sd = nil
		sv.Status = SliceUnchecked
		return sv
	}
	s.fedBytes = aligned
	st := s.sd.Feed(pk)
	s.pkBuf = pk[:0] // Feed copied them; keep the capacity for the next slice
	sv.Packets = s.sd.Packets()
	switch st {
	case automaton.StreamViable:
		sv.Status = SliceOK
	case automaton.StreamDead:
		sv.Status = SliceSuspect
		sv.Code = ReasonUnexplained
		sv.Detail = "no benign derivation explains any extension of the evidence prefix"
		s.alarm = &sv
	default:
		// StreamFallback: the walk gave up, but the decoder's per-packet
		// admissibility screen keeps running — later slices still get the
		// early hijack alarm, only the walk-backed judgment is gone.
		sv.Status = SliceUnchecked
	}
	return sv
}

// echoAlarm restates the latched definitive judgment for a later slice.
func (s *Session) echoAlarm(sv SliceVerdict) SliceVerdict {
	out := *s.alarm
	out.Seq, out.Final = sv.Seq, sv.Final
	return out
}

// Seal closes the session and renders the authoritative verdict —
// bit-identical (code, detail, FailPC, witness) to Verifier.Verify over
// the same report chain, by construction: this IS the whole-chain
// verification, run over the accumulated reports. Seal is idempotent.
func (s *Session) Seal() (*Verdict, error) {
	if !s.sealed {
		s.sealed = true
		s.verdict, s.sealErr = s.seal()
	}
	return s.verdict, s.sealErr
}

// seal is the engine body shared with VerifyWithAutomaton (which is a
// thin Begin/Feed/Seal loop over it).
func (s *Session) seal() (*Verdict, error) {
	v := s.v
	var tm PhaseTiming
	if s.chainErr != nil {
		return nil, s.chainErr
	}
	phase := time.Now()
	log, hmem, err := s.asm.Finish()
	tm.Auth = s.auth + time.Since(phase)
	if err != nil {
		return nil, err
	}
	if hmem != v.hmem {
		return v.hmemMismatch(hmem, tm), nil
	}
	aut := s.aut
	dict := s.dict

	// Streamed fast path: the per-slice prefix walk has already consumed
	// the stream; finish it with batch semantics instead of re-walking
	// from scratch. Requires full coverage (every log byte fed — a
	// trailing fragment or a post-alarm slice leaves a gap) and no
	// verdict cache (its keys cover the expanded stream). Full coverage
	// also pins the walk's accumulated packets to the whole-log decode —
	// a live sd means wraps == dropped == 0 and fedBytes == len(log)
	// means no trailing fragment — so an accept reuses them as the
	// verdict's evidence instead of decoding the log a second time. The
	// semantic verdict is the one a fresh whole-stream decode renders —
	// same path, transfers, loops and consumed packets; only the
	// search-effort counters (Instrs, Passes) may differ where the
	// lookahead pruner had to wait for evidence that batch mode had in
	// hand. Any non-accept falls through to the interpreter, which
	// renders the authoritative rejection exactly as the batch path does.
	if s.sd != nil && aut != nil && v.opts.cache == nil && s.fedBytes == len(log) &&
		s.sd.Status() != automaton.StreamFallback {
		phase = time.Now()
		res, st := s.sd.Seal()
		tm.Search = time.Since(phase)
		if st == automaton.StatusAccept {
			vd := acceptVerdict(&res)
			vd.Evidence = s.sd.Evidence()
			if dict.Len() > 0 {
				phase = time.Now()
				expanded, derr := pipeline.Expand(dict, vd.Evidence)
				tm.Expand += time.Since(phase)
				if derr != nil {
					// An accept consumed the stream through the same tables
					// and limits Decompress applies, so derr cannot happen;
					// report it defensively rather than mask it.
					return nil, derr
				}
				vd.Evidence = expanded
			}
			vd.Timing = tm
			return vd, nil
		}
		aut = nil
	}

	packets, derr := pipeline.New(pipeline.MTBChain(log, s.wraps, s.dropped), pipeline.FailOnLoss()).Packets()
	if derr != nil {
		if derr.Code == pipeline.WrapLoss {
			// The signed reports themselves attest detectable trace loss:
			// the MTB wrapped past the watermark or dropped packets while
			// arming. The stream cannot be losslessly reconstructed, so
			// reconstruction would produce a *false* reject; render an
			// Inconclusive verdict instead. Never OK — an adversary
			// fabricating loss evidence only downgrades its own session
			// from "attack detected" to "re-attest".
			return &Verdict{OK: false, Code: ReasonInconclusive, Detail: derr.Detail, Timing: tm}, nil
		}
		return nil, derr
	}

	// Compressed fast path: decode the marker stream directly, opening
	// dictionary sub-paths as precomputed jumps instead of materializing
	// the expansion up front. Requires the machine bound to this session's
	// dictionary snapshot, and no verdict cache (its keys cover the
	// expanded stream). On accept the expansion is still materialized once
	// for Verdict.Evidence — exactly what the reference pipeline exposes.
	if aut != nil && v.opts.cache == nil && dict.Len() > 0 && aut.Dictionary() == dict {
		phase = time.Now()
		res, st := aut.DecodeCompressed(packets, v.opts.pathCap, v.opts.maxInstrs)
		tm.Search = time.Since(phase)
		if st == automaton.StatusAccept {
			phase = time.Now()
			expanded, derr := pipeline.Expand(dict, packets)
			tm.Expand = time.Since(phase)
			if derr == nil {
				vd := acceptVerdict(&res)
				vd.Evidence = expanded
				vd.Timing = tm
				return vd, nil
			}
			// An accept consumed the stream through the same tables and
			// limits Decompress applies, so derr cannot happen; fall
			// through defensively and let the reference pipeline report.
		}
		// Non-accept: the interpreter renders the verdict. Do not retry
		// the automaton on the expanded stream — the derivation space is
		// identical, so it would fail the same way.
		aut = nil
	}

	if dict.Len() > 0 {
		phase = time.Now()
		expanded, derr := pipeline.Expand(dict, packets)
		tm.Expand += time.Since(phase)
		if derr != nil {
			return nil, derr
		}
		packets = expanded
	}
	c := v.opts.cache
	var key cacheKey
	if c != nil {
		key = verdictKey(v.hmem, packets)
		if vd, ok := c.get(key); ok {
			// get returned a private copy, so stamping this session's
			// evidence and timing never races other sessions.
			vd.Evidence = packets
			tm.CacheHit = true
			vd.Timing = tm
			return vd, nil
		}
	}
	phase = time.Now()
	var vd *Verdict
	if aut != nil {
		if res, st := aut.Decode(packets, v.opts.pathCap, v.opts.maxInstrs); st == automaton.StatusAccept {
			vd = acceptVerdict(&res)
		}
	}
	if vd == nil {
		vd = v.reconstruct(packets)
	}
	tm.Search += time.Since(phase)
	vd.Evidence = packets
	vd.Timing = tm
	if c != nil {
		c.put(key, vd)
	}
	return vd, nil
}

// Reports returns the reports accepted into the chain so far (gateways
// journal the sealed session's evidence from here). Aliases internal
// state; treat as read-only.
func (s *Session) Reports() []*attest.Report { return s.reports }

// Len returns the number of reports accepted into the chain so far.
func (s *Session) Len() int { return s.asm.Len() }

// ChainSealed reports whether a final-flagged report has been accepted.
func (s *Session) ChainSealed() bool { return s.asm.Sealed() }

// Challenge returns the session's challenge.
func (s *Session) Challenge() attest.Challenge { return s.chal }
