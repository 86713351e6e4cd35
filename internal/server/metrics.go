package server

import (
	"time"

	"raptrack/internal/obs"
	"raptrack/internal/remote"
	"raptrack/internal/trace/pipeline"
	"raptrack/internal/verify"
)

// stageBounds are the per-stage session latency buckets (seconds): the
// handshake stages live in the sub-millisecond range, evidence transfer
// and reconstruction in the milliseconds-to-seconds range, so the spread
// is wider than the verify histogram alone.
var stageBounds = []float64{0.0001, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5}

// verifyBounds are the reconstruction-latency buckets (seconds); they
// mirror the pre-registry verify histogram (1ms..2.5s) so snapshots and
// dashboards stay comparable across the API redesign.
var verifyBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5}

// frameNames maps remote frame type bytes to metric label values.
var frameNames = [11]string{
	remote.FrameChal:    "chal",
	remote.FrameRprt:    "rprt",
	remote.FrameFail:    "fail",
	remote.FrameHello:   "helo",
	remote.FrameBusy:    "busy",
	remote.FrameVerdict: "vrdt",
	remote.FrameDict:    "dict",
	remote.FrameSlice:   "slice",
	remote.FrameHeal:    "heal",
	remote.FrameHealAck: "healack",
}

// phase indices into gatewayMetrics.phase.
const (
	phaseAuth = iota
	phaseExpand
	phaseSearch
	numPhases
)

var phaseNames = [numPhases]string{"auth", "expand", "search"}

// gatewayMetrics is every gateway metric, pre-resolved at construction so
// the session hot path touches only atomics — never the registry, never
// a label-map lookup. The registry these live in is the single source of
// truth; Gateway.Snapshot reads them back, it does not count separately.
type gatewayMetrics struct {
	sessionsStarted  *obs.Counter
	sessionsAccepted *obs.Counter
	sessionsFailed   *obs.Counter
	shedCapacity     *obs.Counter // BUSY at the slot limit
	shedBreaker      *obs.Counter // BUSY from an open breaker

	verdictOK           *obs.Counter
	verdictAttack       *obs.Counter
	verdictInconclusive *obs.Counter
	rejections          [verify.NumReasons]*obs.Counter
	decodeErrors        [pipeline.NumDecodeErrs]*obs.Counter

	bytesIn   *obs.Counter
	bytesOut  *obs.Counter
	framesIn  [len(frameNames)]*obs.Counter
	framesOut [len(frameNames)]*obs.Counter

	verifySeconds *obs.Histogram
	phase         [numPhases]*obs.Histogram
	stage         [obs.NumStages]*obs.Histogram

	streamSessions  *obs.Counter
	streamSlices    *obs.Counter
	streamAlarms    [5]*obs.Counter // by verify.SliceStatus (definitive classes only)
	streamEarlyCuts *obs.Counter
	streamTagBreaks *obs.Counter
	sliceSeconds    *obs.Histogram
	healDirectives  [4]*obs.Counter // by remote.HealDirective
	healAcks        *obs.Counter

	minedSessions   *obs.Counter
	dictPromotions  *obs.Counter
	dictQuarantines *obs.Counter

	panicsRecovered  *obs.Counter
	breakerOpens     *obs.Counter
	breakerHalfOpens *obs.Counter
	breakerCloses    *obs.Counter
	proverRetries    *obs.Counter
}

// registerMetrics installs the gateway's families into g's observer
// registry. Concrete counters/histograms carry the hot-path counts;
// values that already live elsewhere — slot occupancy, queue depth,
// cache totals, dictionary sizes, breaker states — are func-backed and
// evaluated only at scrape time, so there is no second counting system
// to drift.
func (g *Gateway) registerMetrics() *gatewayMetrics {
	r := g.obs.Registry()
	m := &gatewayMetrics{}

	m.sessionsStarted = r.Counter("raptrack_sessions_started_total",
		"Connections handled, including shed ones.")
	m.sessionsAccepted = r.Counter("raptrack_sessions_accepted_total",
		"Sessions that won a slot.")
	m.sessionsFailed = r.Counter("raptrack_sessions_failed_total",
		"Accepted sessions that errored out (timeout, protocol, bad evidence).")
	shed := r.CounterVec("raptrack_sessions_shed_total",
		"Sessions answered with one BUSY frame and closed, by cause.", "cause")
	m.shedCapacity = shed.With("capacity")
	m.shedBreaker = shed.With("breaker")
	r.GaugeFunc("raptrack_active_sessions",
		"Sessions currently holding a slot.",
		func() float64 { return float64(len(g.slots)) })
	r.GaugeFunc("raptrack_verify_queue_depth",
		"Verification jobs waiting for a pool worker.",
		func() float64 { return float64(len(g.jobs)) })

	verdicts := r.CounterVec("raptrack_verdicts_total",
		"Session verdicts delivered, by class.", "verdict")
	m.verdictOK = verdicts.With("ok")
	m.verdictAttack = verdicts.With("attack")
	m.verdictInconclusive = verdicts.With("inconclusive")
	rej := r.CounterVec("raptrack_rejections_total",
		"Non-OK verdicts by typed reason code.", "reason")
	for code := verify.ReasonCode(0); code < verify.NumReasons; code++ {
		m.rejections[code] = rej.With(code.String())
	}
	dec := r.CounterVec("raptrack_decode_errors_total",
		"Evidence decode failures by typed pipeline code (wrap-loss counts Inconclusive verdicts).", "code")
	for code := pipeline.DecodeErr(0); code < pipeline.NumDecodeErrs; code++ {
		m.decodeErrors[code] = dec.With(code.String())
	}

	bytes := r.CounterVec("raptrack_io_bytes_total",
		"Session transport bytes, by direction.", "dir")
	m.bytesIn = bytes.With("in")
	m.bytesOut = bytes.With("out")
	frames := r.CounterVec("raptrack_frames_total",
		"Protocol frames, by direction and frame type.", "dir", "type")
	for typ, name := range frameNames {
		if name == "" {
			continue
		}
		m.framesIn[typ] = frames.With("in", name)
		m.framesOut[typ] = frames.With("out", name)
	}

	m.verifySeconds = r.Histogram("raptrack_verify_seconds",
		"Worker-pool wall time of one verification (auth + expand + reconstruction).",
		verifyBounds)
	phases := r.HistogramVec("raptrack_verify_phase_seconds",
		"Verification wall time attributed to phases (auth, expand, search).",
		verifyBounds, "phase")
	for i, name := range phaseNames {
		m.phase[i] = phases.With(name)
	}
	stages := r.HistogramVec("raptrack_stage_seconds",
		"Session wall time per protocol stage.", stageBounds, "stage")
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		m.stage[s] = stages.With(s.String())
	}

	m.streamSessions = r.Counter("raptrack_stream_sessions_total",
		"Sessions delivering evidence as SLICE frames (streaming attestation).")
	m.streamSlices = r.Counter("raptrack_stream_slices_total",
		"Evidence slices fed through streaming verification.")
	alarms := r.CounterVec("raptrack_stream_alarms_total",
		"Definitive non-OK slice judgments raised mid-stream, by class.", "class")
	for _, st := range []verify.SliceStatus{verify.SliceInconclusive, verify.SliceSuspect, verify.SliceReject} {
		m.streamAlarms[st] = alarms.With(st.String())
	}
	m.streamEarlyCuts = r.Counter("raptrack_stream_early_cuts_total",
		"Streaming sessions sealed before their final slice (chain-level rejects).")
	m.streamTagBreaks = r.Counter("raptrack_stream_tag_breaks_total",
		"SLICE frames whose running authentication tag broke the session chain.")
	m.sliceSeconds = r.Histogram("raptrack_stream_slice_verify_seconds",
		"Worker-pool wall time of one slice feed (incremental auth + prefix walk).",
		stageBounds)
	heals := r.CounterVec("raptrack_heal_directives_total",
		"HEAL directives pushed to devices, by directive.", "directive")
	for d := remote.HealQuarantine; d <= remote.HealReattest; d++ {
		m.healDirectives[d] = heals.With(d.String())
	}
	m.healAcks = r.Counter("raptrack_heal_acks_total",
		"HEAL directives acknowledged by devices.")
	r.GaugeVecFunc("raptrack_heal_devices",
		"Devices currently tracked by the healing state machine, by state.",
		[]string{"state"}, func() []obs.Sample {
			counts := g.heals.counts()
			samples := make([]obs.Sample, 0, 3)
			for st := HealSuspect; st <= HealHealing; st++ {
				samples = append(samples, obs.Sample{
					Labels: []string{st.String()},
					Value:  float64(counts[st]),
				})
			}
			return samples
		})

	m.minedSessions = r.Counter("raptrack_mined_sessions_total",
		"Accepted sessions whose evidence was mined for hot sub-paths.")
	m.dictPromotions = r.Counter("raptrack_dict_promotions_total",
		"Sub-paths promoted into live dictionaries.")
	m.dictQuarantines = r.Counter("raptrack_dict_quarantines_total",
		"Mined dictionaries discarded by the promotion self-check.")
	r.GaugeFunc("raptrack_dict_paths",
		"Live dictionary paths across registered apps.",
		func() float64 { return float64(g.dictPaths()) })

	r.CounterFunc("raptrack_cache_hits_total",
		"Verdict cache hits across apps (shared caches counted once).",
		func() float64 { return float64(g.cacheTotals().Hits) })
	r.CounterFunc("raptrack_cache_misses_total",
		"Verdict cache misses across apps.",
		func() float64 { return float64(g.cacheTotals().Misses) })
	r.CounterFunc("raptrack_cache_evictions_total",
		"Verdict cache evictions across apps.",
		func() float64 { return float64(g.cacheTotals().Evictions) })
	r.GaugeFunc("raptrack_cache_entries",
		"Verdict cache entries resident across apps.",
		func() float64 { return float64(g.cacheTotals().Entries) })
	r.GaugeFunc("raptrack_cache_bytes",
		"Verdict cache bytes resident across apps.",
		func() float64 { return float64(g.cacheTotals().Bytes) })

	// Automaton engine activity lives in per-app verify.AutomatonCounters
	// (so DICT-bump recompiles keep the counts monotonic); like the cache
	// totals, the registry views are func-backed and summed at scrape time.
	r.CounterFunc("raptrack_automaton_decodes_total",
		"Evidence streams decoded by the compiled automaton engine.",
		func() float64 { return float64(g.autTotals().Decodes) })
	r.CounterFunc("raptrack_automaton_accepts_total",
		"Automaton decodes that accepted (verdict authority; no interpreter run).",
		func() float64 { return float64(g.autTotals().Accepts) })
	r.CounterFunc("raptrack_automaton_nopaths_total",
		"Automaton decodes that exhausted every derivation (interpreter re-ran and rendered the reject).",
		func() float64 { return float64(g.autTotals().NoPaths) })
	r.CounterFunc("raptrack_automaton_fallbacks_total",
		"Automaton decodes that gave up without exhausting the space (interpreter re-ran).",
		func() float64 { return float64(g.autTotals().Fallbacks) })
	r.CounterFunc("raptrack_automaton_rescues_total",
		"Automaton accepts recovered by the tabulating rescue pass after speculative fallback.",
		func() float64 { return float64(g.autTotals().Rescues) })
	r.CounterFunc("raptrack_automaton_steps_total",
		"Transition-table rows visited across automaton decodes.",
		func() float64 { return float64(g.autTotals().Steps) })
	r.CounterFunc("raptrack_automaton_backtracks_total",
		"Speculative checkpoints rewound across automaton decodes.",
		func() float64 { return float64(g.autTotals().Backtracks) })
	r.CounterFunc("raptrack_automaton_compiles_total",
		"Automaton table compilations, including O(dictionary) DICT-bump rebinds.",
		func() float64 { return float64(g.autTotals().Compiles) })
	r.CounterFunc("raptrack_automaton_compile_seconds_total",
		"Wall time spent compiling automaton tables.",
		func() float64 { return float64(g.autTotals().CompileNanos) / 1e9 })
	r.GaugeFunc("raptrack_automaton_table_bytes",
		"Resident transition-table bytes across the apps' live automata.",
		func() float64 { return float64(g.autTableBytes()) })

	m.panicsRecovered = r.Counter("raptrack_panics_recovered_total",
		"Session/worker panics caught and converted to errors.")
	brk := r.CounterVec("raptrack_breaker_transitions_total",
		"Circuit-breaker transitions, by event.", "event")
	m.breakerOpens = brk.With("open")
	m.breakerHalfOpens = brk.With("half_open")
	m.breakerCloses = brk.With("close")
	r.GaugeVecFunc("raptrack_breaker_state",
		"Per-app circuit-breaker state (0 closed, 1 open, 2 half-open).",
		[]string{"app"}, func() []obs.Sample {
			g.mu.Lock()
			samples := make([]obs.Sample, 0, len(g.apps))
			for name, st := range g.apps {
				samples = append(samples, obs.Sample{
					Labels: []string{name},
					Value:  float64(st.brk.current()),
				})
			}
			g.mu.Unlock()
			return samples
		})
	m.proverRetries = r.Counter("raptrack_prover_retries_total",
		"Prover-side retries reported via ObserveProverRetries.")

	return m
}

// span records one session stage into both views at once: the trace (the
// per-session timeline behind /debug/sessions) and the per-stage latency
// histogram (the fleet aggregate behind /metrics).
func (g *Gateway) span(t *obs.Trace, s obs.Stage, start, d time.Duration) {
	if start < 0 {
		t.Record(s, d)
	} else {
		t.RecordAt(s, start, d)
	}
	g.m.stage[s].ObserveDuration(d)
}

// cacheTotals aggregates cache effectiveness across the registered apps;
// a cache shared by several apps is counted once.
func (g *Gateway) cacheTotals() verify.CacheStats {
	var total verify.CacheStats
	g.mu.Lock()
	defer g.mu.Unlock()
	seen := make(map[*verify.Cache]bool, len(g.apps))
	for _, st := range g.apps {
		if st.cache == nil || seen[st.cache] {
			continue
		}
		seen[st.cache] = true
		cs := st.cache.Stats()
		total.Hits += cs.Hits
		total.Misses += cs.Misses
		total.Evictions += cs.Evictions
		total.Entries += cs.Entries
		total.Bytes += cs.Bytes
	}
	return total
}

// autSums is one scrape-time aggregation of the per-app automaton
// counter blocks (plain values, not atomics).
type autSums struct {
	Decodes, Accepts, NoPaths, Fallbacks, Rescues uint64
	Steps, Backtracks                             uint64
	Compiles, CompileNanos                        uint64
}

// autTotals sums automaton engine activity across registered apps.
func (g *Gateway) autTotals() autSums {
	var t autSums
	g.mu.Lock()
	for _, st := range g.apps {
		c := st.autCtrs
		if c == nil {
			continue
		}
		t.Decodes += c.Decodes.Load()
		t.Accepts += c.Accepts.Load()
		t.NoPaths += c.NoPaths.Load()
		t.Fallbacks += c.Fallbacks.Load()
		t.Rescues += c.Rescues.Load()
		t.Steps += c.Steps.Load()
		t.Backtracks += c.Backtracks.Load()
		t.Compiles += c.Compiles.Load()
		t.CompileNanos += c.CompileNanos.Load()
	}
	g.mu.Unlock()
	return t
}

// autTableBytes sums the resident transition tables of the apps' live
// (current dictionary version) automata.
func (g *Gateway) autTableBytes() int64 {
	var n int64
	g.mu.Lock()
	for _, st := range g.apps {
		if aut := st.dict.Load().aut; aut != nil {
			n += aut.Stats().TableBytes
		}
	}
	g.mu.Unlock()
	return n
}

// dictPaths sums the live dictionary sizes across registered apps.
func (g *Gateway) dictPaths() int {
	n := 0
	g.mu.Lock()
	for _, st := range g.apps {
		n += st.dict.Load().dict.Len()
	}
	g.mu.Unlock()
	return n
}
