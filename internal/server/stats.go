package server

import (
	"fmt"
	"strings"
	"time"

	"raptrack/internal/verify"
)

// HistBucket is one verify-latency histogram bucket; Le == 0 marks the
// +inf overflow bucket.
type HistBucket struct {
	Le    time.Duration
	Count uint64
}

// Stats is a point-in-time snapshot of the gateway, produced by
// [Gateway.Snapshot]. It is an immutable value read back from the obs
// metrics registry — the registry is the single source of truth; there
// is no second set of counters to mutate or drift. Counts are monotone
// except ActiveSessions, a gauge.
type Stats struct {
	SessionsStarted  uint64 // connections handled (accepted + rejected)
	SessionsAccepted uint64
	SessionsRejected uint64 // shed with a BUSY frame at the slot limit
	SessionsFailed   uint64 // accepted but errored (timeout, protocol, bad evidence)
	ActiveSessions   int    // sessions currently holding a slot

	VerdictOK     uint64 // sessions whose evidence attested a benign path
	VerdictAttack uint64 // well-formed evidence attesting a disallowed path
	// VerdictInconclusive counts sessions whose authentic evidence attested
	// detectable trace loss (verify.ReasonInconclusive): neither accept nor
	// attack — the device is expected to re-attest.
	VerdictInconclusive uint64
	// Rejections buckets non-OK verdicts (attack and inconclusive) by typed
	// reason code; index with a verify.ReasonCode.
	// Rejections[verify.ReasonNone] stays zero.
	Rejections [verify.NumReasons]uint64

	BytesIn  uint64
	BytesOut uint64

	Verifications uint64        // reconstructions run by the worker pool
	VerifyTotal   time.Duration // summed reconstruction wall time
	VerifyHist    []HistBucket

	// Fast-path instrumentation (verdict + segment caches, aggregated
	// across apps; shared caches are counted once).
	CacheHits      uint64
	CacheMisses    uint64
	CacheEvictions uint64
	CacheEntries   int
	CacheBytes     int64

	// Online mining: sessions mined, sub-paths promoted into live
	// dictionaries, and the current total dictionary size across apps.
	MinedSessions  uint64
	DictPromotions uint64
	DictPaths      int
	// DictQuarantines counts mined dictionaries that failed the promotion
	// self-check (decode + evidence round-trip) and were discarded before
	// reaching any prover handshake.
	DictQuarantines uint64

	// Automaton engine activity (aggregated across apps). Accepts carried
	// verdict authority without an interpreter run; NoPaths and Fallbacks
	// were re-rendered by the interpretive search; Rescues counts accepts
	// recovered by the tabulating rescue pass after speculative fallback.
	AutomatonDecodes   uint64
	AutomatonAccepts   uint64
	AutomatonNoPaths   uint64
	AutomatonFallbacks uint64
	AutomatonRescues   uint64
	AutomatonCompiles  uint64 // table compilations, incl. DICT-bump rebinds

	// Streaming attestation (SLICE delivery) and device healing.
	StreamSessions  uint64 // sessions delivering evidence as SLICE frames
	StreamSlices    uint64 // slices fed through streaming verification
	StreamAlarms    uint64 // definitive mid-stream alarms (all classes)
	StreamEarlyCuts uint64 // streamed sessions sealed before their final slice
	StreamTagBreaks uint64 // slices whose running auth tag broke the chain
	HealDirectives  uint64 // HEAL directives pushed to devices
	HealAcks        uint64 // HEAL directives acknowledged

	// Resilience instrumentation.
	PanicsRecovered  uint64 // session/worker panics caught and converted to errors
	BreakerOpens     uint64 // circuit-breaker closed/half-open -> open transitions
	BreakerHalfOpens uint64 // half-open probes admitted
	BreakerCloses    uint64 // breaker recoveries back to closed
	BreakerSheds     uint64 // sessions shed by an open breaker (BUSY + hint)
	ProverRetries    uint64 // prover-side retries reported via ObserveProverRetries
}

// Snapshot reads the gateway's registry into a Stats value. Sessions may
// land between individual reads, so the sums are consistent only once
// the gateway is quiescent (e.g. after Close has drained).
func (g *Gateway) Snapshot() Stats {
	m := g.m
	s := Stats{
		SessionsStarted:  m.sessionsStarted.Value(),
		SessionsAccepted: m.sessionsAccepted.Value(),
		SessionsRejected: m.shedCapacity.Value(),
		SessionsFailed:   m.sessionsFailed.Value(),
		ActiveSessions:   len(g.slots),

		VerdictOK:           m.verdictOK.Value(),
		VerdictAttack:       m.verdictAttack.Value(),
		VerdictInconclusive: m.verdictInconclusive.Value(),

		BytesIn:  m.bytesIn.Value(),
		BytesOut: m.bytesOut.Value(),

		MinedSessions:   m.minedSessions.Value(),
		DictPromotions:  m.dictPromotions.Value(),
		DictQuarantines: m.dictQuarantines.Value(),
		DictPaths:       g.dictPaths(),

		StreamSessions:  m.streamSessions.Value(),
		StreamSlices:    m.streamSlices.Value(),
		StreamEarlyCuts: m.streamEarlyCuts.Value(),
		StreamTagBreaks: m.streamTagBreaks.Value(),
		HealAcks:        m.healAcks.Value(),

		PanicsRecovered:  m.panicsRecovered.Value(),
		BreakerOpens:     m.breakerOpens.Value(),
		BreakerHalfOpens: m.breakerHalfOpens.Value(),
		BreakerCloses:    m.breakerCloses.Value(),
		BreakerSheds:     m.shedBreaker.Value(),
		ProverRetries:    m.proverRetries.Value(),
	}
	for i := range s.Rejections {
		s.Rejections[i] = m.rejections[i].Value()
	}
	for _, c := range m.streamAlarms {
		if c != nil {
			s.StreamAlarms += c.Value()
		}
	}
	for _, c := range m.healDirectives {
		if c != nil {
			s.HealDirectives += c.Value()
		}
	}
	hs := m.verifySeconds.Snapshot()
	s.Verifications = hs.Count
	s.VerifyTotal = time.Duration(hs.Sum * float64(time.Second))
	s.VerifyHist = make([]HistBucket, 0, len(hs.Counts))
	for i, cnt := range hs.Counts {
		le := time.Duration(0) // +inf overflow bucket
		if i < len(hs.Bounds) {
			le = time.Duration(hs.Bounds[i] * float64(time.Second))
		}
		s.VerifyHist = append(s.VerifyHist, HistBucket{Le: le, Count: cnt})
	}
	at := g.autTotals()
	s.AutomatonDecodes = at.Decodes
	s.AutomatonAccepts = at.Accepts
	s.AutomatonNoPaths = at.NoPaths
	s.AutomatonFallbacks = at.Fallbacks
	s.AutomatonRescues = at.Rescues
	s.AutomatonCompiles = at.Compiles
	ct := g.cacheTotals()
	s.CacheHits = ct.Hits
	s.CacheMisses = ct.Misses
	s.CacheEvictions = ct.Evictions
	s.CacheEntries = ct.Entries
	s.CacheBytes = ct.Bytes
	return s
}

// String renders the snapshot as the multi-line block `raptrack serve`
// prints on shutdown.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sessions:      %d started, %d accepted, %d rejected (busy), %d failed, %d active\n",
		s.SessionsStarted, s.SessionsAccepted, s.SessionsRejected, s.SessionsFailed, s.ActiveSessions)
	fmt.Fprintf(&b, "verdicts:      %d ok, %d attack, %d inconclusive\n",
		s.VerdictOK, s.VerdictAttack, s.VerdictInconclusive)
	if s.VerdictAttack > 0 || s.VerdictInconclusive > 0 {
		fmt.Fprintf(&b, "rejections:   ")
		for code, n := range s.Rejections {
			if n > 0 {
				fmt.Fprintf(&b, " %s:%d", verify.ReasonCode(code), n)
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "traffic:       %d B in, %d B out\n", s.BytesIn, s.BytesOut)
	avg := time.Duration(0)
	if s.Verifications > 0 {
		avg = s.VerifyTotal / time.Duration(s.Verifications)
	}
	fmt.Fprintf(&b, "verifications: %d (avg %v)\n", s.Verifications, avg)
	fmt.Fprintf(&b, "verify latency:")
	for _, hb := range s.VerifyHist {
		if hb.Le == 0 {
			fmt.Fprintf(&b, " +inf:%d", hb.Count)
		} else {
			fmt.Fprintf(&b, " <=%v:%d", hb.Le, hb.Count)
		}
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "cache:         %d hits, %d misses, %d evictions, %d entries, %d B\n",
		s.CacheHits, s.CacheMisses, s.CacheEvictions, s.CacheEntries, s.CacheBytes)
	fmt.Fprintf(&b, "mining:        %d sessions mined, %d promotions, %d dictionary paths, %d quarantined\n",
		s.MinedSessions, s.DictPromotions, s.DictPaths, s.DictQuarantines)
	fmt.Fprintf(&b, "automaton:     %d decodes (%d accepts, %d no-path, %d fallbacks, %d rescued), %d compiles\n",
		s.AutomatonDecodes, s.AutomatonAccepts, s.AutomatonNoPaths, s.AutomatonFallbacks, s.AutomatonRescues, s.AutomatonCompiles)
	if s.StreamSessions > 0 {
		fmt.Fprintf(&b, "streaming:     %d sessions, %d slices, %d alarms, %d early cuts, %d tag breaks, heal %d pushed/%d acked\n",
			s.StreamSessions, s.StreamSlices, s.StreamAlarms, s.StreamEarlyCuts, s.StreamTagBreaks, s.HealDirectives, s.HealAcks)
	}
	fmt.Fprintf(&b, "resilience:    %d panics recovered, breaker %d opens/%d probes/%d closes/%d sheds, %d prover retries\n",
		s.PanicsRecovered, s.BreakerOpens, s.BreakerHalfOpens, s.BreakerCloses, s.BreakerSheds, s.ProverRetries)
	return b.String()
}
