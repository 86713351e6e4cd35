package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"raptrack/internal/attest"
)

// config is one invocation's settings.
type config struct {
	raptrack   string        // gateway binary
	workdir    string        // scratch root (journals, keys, spans)
	seed       uint64        // workload seed
	warmup     time.Duration // load before the measured window
	window     time.Duration // measured window
	coldStarts int           // gateway spawns timed for setup_s
	trace      bool          // run the traced replay after the window
	spansDir   string        // where <workload>.spans.jsonl goes
	// smoke marks a harness check, not a measurement: its shrunken diverse
	// pool fits the verdict cache, so the validity checks are skipped.
	smoke bool
	// The traced replay's sample: honest and hijacked sessions.
	tracedHonest, tracedHijacked int
}

// runOutcome is one workload run: every metric measured, and whether the
// correctness gates held.
type runOutcome struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]tail    `json:"samples"`
}

func (o *runOutcome) problem(format string, args ...any) {
	o.Correct = false
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// runWorkload spawns fresh gateways for w, times their cold starts,
// drives the warm-up and the measured window, checks every verdict, and
// (with cfg.trace) replays a sample through the layers in process.
func runWorkload(w *workload, cfg config) (*runOutcome, error) {
	tmp, err := os.MkdirTemp(cfg.workdir, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	specs, err := loadSpecs(gatewayApps, cfg.seed)
	if err != nil {
		return nil, err
	}
	probeTpl := newTemplates(specs, 0)
	for _, app := range gatewayApps {
		if _, err := probeTpl.get(app, nil); err != nil {
			return nil, err
		}
	}
	tpl := newTemplates(specs, w.streamWatermark)
	var ev evidence = templateEvidence{tpl}
	var poolRecords []time.Duration
	if w.pool > 0 {
		pools := map[string][][]*attest.Report{}
		for _, app := range w.apps {
			var took []time.Duration
			if pools[app], took, err = recordPool(specs[app], cfg.seed, w.pool, w.inFlight); err != nil {
				return nil, err
			}
			poolRecords = append(poolRecords, took...)
		}
		ev = poolEvidence{pools}
	}

	out := &runOutcome{Workload: w.name, Correct: true, Metrics: map[string]float64{}, Samples: map[string]tail{}}

	// Cold starts: spawn to the first verdict for every served app. The
	// last gateway stays up for the workload.
	var (
		g      *gateway
		setups []float64
		probes []result
	)
	for k := 0; k < cfg.coldStarts; k++ {
		if g != nil {
			g.stop()
		}
		dir := filepath.Join(tmp, fmt.Sprintf("journal-%d", k))
		if err := writeKeys(dir, specs); err != nil {
			return nil, err
		}
		start := time.Now()
		if g, err = startGateway(cfg.raptrack, dir); err != nil {
			return nil, err
		}
		rs := probe(g.addr, specs, probeTpl)
		setups = append(setups, time.Since(start).Seconds())
		for _, r := range rs {
			if !r.correct() {
				g.stop()
				return nil, fmt.Errorf("cold-start probe %s: verdict ok=%v err=%v", r.job.app, r.ok, r.err)
			}
		}
		probes = rs
	}
	defer g.stop()
	sort.Float64s(setups)
	out.Metrics["setup_s"] = median(setups)

	cl := &client{addr: g.addr, w: w, ev: ev, specs: specs}
	gen := newJobGen(w, cfg.seed)
	loadStart := time.Now()
	winStart := loadStart.Add(cfg.warmup)
	winEnd := winStart.Add(cfg.window)
	var results []result
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		results = cl.load(gen, winEnd)
	}()

	win, err := measureWindow(g, tpl, winStart, cfg.window)
	<-loadDone
	if err != nil {
		return nil, err
	}
	final, err := g.metrics()
	if err != nil {
		return nil, err
	}
	peak, err := procMem(g.pid)
	if err != nil {
		return nil, err
	}
	g.stop()

	// The measured window: sessions whose clock started inside it.
	var sessions []result
	for _, r := range results {
		if !r.start.Before(winStart) && r.start.Before(winEnd) {
			sessions = append(sessions, r)
		}
	}
	recs := tpl.recordings()
	fillEndToEnd(out, w, sessions, win)
	fillGatewayLayers(out, win.m1.sub(win.m0), sessions)
	out.Metrics["gateway.peak_rss_mb"] = float64(peak.HWM) / 1e6
	out.Metrics["loadgen.cpu_us_per_session"] = ratio(float64(win.loadgenCPU.Microseconds()), float64(len(sessions)))
	out.Metrics["prover.records_in_window"] = float64(len(recs) - win.recordsBefore)
	var ms []float64
	for _, r := range append(recs, poolRecords...) {
		ms = append(ms, float64(r.Microseconds())/1e3)
	}
	out.Metrics["prover.record_ms"] = mean(ms)

	checkGates(out, append(probes, results...), final)
	if !cfg.smoke {
		checkValidity(out, w)
	}

	if cfg.trace && out.Correct {
		if err := tracedRun(out, w, cfg, specs, cl, ev, tmp); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// window is what the gateway and the generator recorded over the
// measured window, besides the sessions themselves.
type window struct {
	start         time.Time
	length        time.Duration
	cpu           time.Duration // gateway utime+stime over the window
	rss           []int64       // gateway VmRSS samples over the window
	m0, m1        scrape        // /metrics at the window's start and end
	loadgenCPU    time.Duration // the generator's own CPU over the window
	recordsBefore int           // template recordings before the window
}

// measureWindow reads the gateway's CPU clock and scrapes /metrics at
// both ends of the window [start, start+length), and samples its RSS at
// 10 Hz in between. It returns at the window's end.
func measureWindow(g *gateway, tpl *templates, start time.Time, length time.Duration) (*window, error) {
	time.Sleep(time.Until(start))
	w := &window{start: start, length: length}
	var err error
	if w.m0, err = g.metrics(); err != nil {
		return nil, err
	}
	self0 := selfCPU()
	w.recordsBefore = len(tpl.recordings())
	cpu0, err := procCPU(g.pid)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sampler := sampleRSS(ctx, g.pid, 100*time.Millisecond)

	time.Sleep(time.Until(start.Add(length)))
	cpu1, err := procCPU(g.pid)
	cancel()
	if err != nil {
		return nil, err
	}
	w.cpu = cpu1 - cpu0
	if w.m1, err = g.metrics(); err != nil {
		return nil, err
	}
	w.loadgenCPU = selfCPU() - self0
	w.rss, err = sampler.wait()
	return w, err
}

// probe runs one honest session per served app over two connections —
// the cold-start clock stops at the last verdict.
func probe(addr string, specs map[string]*appSpec, tpl *templates) []result {
	cl := &client{addr: addr, w: &workload{}, ev: templateEvidence{tpl}, specs: specs}
	results := make([]result, len(gatewayApps))
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(gatewayApps); i += 2 {
				j := job{seq: -1 - int64(i), app: gatewayApps[i], device: "cold-start-probe"}
				results[i] = cl.run(j, time.Now())
			}
		}(c)
	}
	wg.Wait()
	return results
}

// fillEndToEnd computes the end-to-end metrics and the workload-only
// outcomes over the whole measured window: win holds the sessions whose
// clock started inside it, meas what the gateway spent meanwhile.
func fillEndToEnd(out *runOutcome, w *workload, win []result, meas *window) {
	m := out.Metrics
	completed := 0
	var honest []result
	for _, r := range win {
		if r.err == nil {
			completed++
		}
		if !r.job.hijack && r.correct() {
			honest = append(honest, r)
		}
	}
	h := durationsMs(latencies(honest))
	m["sessions_per_s"] = float64(completed) / meas.length.Seconds()
	m["latency_p50_ms"] = median(h)
	out.Samples["latency_p99_ms"] = percentile(h, 0.99)
	m["latency_p99_ms"] = out.Samples["latency_p99_ms"].Value
	m["latency_p99_slice_ms"] = sliceP99(honest, meas.start, meas.length)
	m["gateway_cpu_us_per_session"] = ratio(float64(meas.cpu.Microseconds()), float64(len(win)))
	rss := make([]float64, len(meas.rss))
	for i, b := range meas.rss {
		rss[i] = float64(b) / 1e6
	}
	m["gateway_rss_mb"] = mean(rss)

	var rejects, detects, late []time.Duration
	failed, falseAccepts := 0, 0
	for _, r := range win {
		late = append(late, r.late)
		switch {
		case r.job.hijack && r.err == nil && r.ok:
			falseAccepts++
		case !r.correct():
			failed++
		case r.job.hijack:
			rejects = append(rejects, r.latency())
			if r.detect > 0 {
				detects = append(detects, r.detect)
			}
		}
	}
	out.Attempted = len(win)
	out.Failed = failed + falseAccepts
	if w.hijackEvery > 0 && w.streamWatermark == 0 {
		r := durationsMs(rejects)
		m["reject_p50_ms"] = median(r)
		out.Samples["reject_p90_ms"] = percentile(r, 0.90)
		m["reject_p90_ms"] = out.Samples["reject_p90_ms"].Value
	}
	if w.streamWatermark > 0 && w.hijackEvery > 0 {
		d := durationsMs(detects)
		m["detect_p50_ms"] = median(d)
		out.Samples["detect_p90_ms"] = percentile(d, 0.90)
		m["detect_p90_ms"] = out.Samples["detect_p90_ms"].Value
	}
	m["fail_ratio"] = ratio(float64(failed), float64(len(win)))
	m["false_accepts"] = float64(falseAccepts)
	if w.rate > 0 {
		out.Samples["loadgen.late_p99_ms"] = percentile(durationsMs(late), 0.99)
		m["loadgen.late_p99_ms"] = out.Samples["loadgen.late_p99_ms"].Value
	}
}

// sliceHonest is the honest sessions a slice of the window is sized to
// hold: a p99 needs 100*minBeyond samples to have minBeyond beyond it,
// and the extra quarter covers slices that draw fewer than their share.
const sliceHonest = 100 * minBeyond * 5 / 4

// sliceP99 cuts the window [start, start+length) into equal slices of
// about sliceHonest honest sessions each (at least one) and returns the
// median of the slices' p99 latencies, in ms. It is the tail a session
// meets in a typical stretch of the window: a stall confined to fewer than
// half the slices does not move it, which is what keeps it steady enough
// to bound, and why the whole-window p99 is reported beside it.
func sliceP99(honest []result, start time.Time, length time.Duration) float64 {
	k := max(len(honest)/sliceHonest, 1)
	slices := make([][]result, k)
	for _, r := range honest {
		i := min(int(int64(k)*int64(r.start.Sub(start))/int64(length)), k-1)
		slices[i] = append(slices[i], r)
	}
	p99s := make([]float64, k)
	for i, s := range slices {
		p99s[i] = percentile(durationsMs(latencies(s)), 0.99).Value
	}
	_, med, _ := quartiles(p99s)
	return med
}

func latencies(rs []result) []time.Duration {
	out := make([]time.Duration, len(rs))
	for i, r := range rs {
		out[i] = r.latency()
	}
	return out
}

// fillGatewayLayers derives the per-layer metrics read from the gateway's
// own /metrics over the window (d is the window delta).
func fillGatewayLayers(out *runOutcome, d scrape, win []result) {
	m := out.Metrics
	n := float64(len(win))
	us := func(seconds float64) float64 { return seconds * 1e6 }
	m["server.verify_worker_us"] = us(d.histMean("raptrack_verify_seconds"))
	m["server.verify_queue_us"] = us(d.histMean("raptrack_stage_seconds", "stage", "verify") - d.histMean("raptrack_verify_seconds"))
	for _, st := range []string{"helo", "dict_push", "collect", "verdict_write"} {
		m["server.stage_"+st+"_us"] = us(d.histMean("raptrack_stage_seconds", "stage", st))
	}
	for _, ph := range []string{"auth", "expand", "search"} {
		m["server.phase_"+ph+"_us"] = us(d.histMean("raptrack_verify_phase_seconds", "phase", ph))
	}
	m["server.sheds"] = d.sum("raptrack_sessions_shed_total")
	m["server.bytes_in_per_session"] = ratio(d.get("raptrack_io_bytes_total", "dir", "in"), n)
	m["server.frames_in_per_session"] = ratio(d.sumWhere("raptrack_frames_total", "dir", "in"), n)
	hits, misses := d.get("raptrack_cache_hits_total"), d.get("raptrack_cache_misses_total")
	m["verify.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["verify.cache_evictions_per_session"] = ratio(d.get("raptrack_cache_evictions_total"), n)
	decodes := d.get("raptrack_automaton_decodes_total")
	m["automaton.decodes_per_session"] = ratio(decodes, n)
	m["automaton.accept_ratio"] = ratio(d.get("raptrack_automaton_accepts_total"), decodes)
	m["automaton.fallbacks_per_session"] = ratio(d.get("raptrack_automaton_fallbacks_total"), n)
	m["automaton.steps_per_decode"] = ratio(d.get("raptrack_automaton_steps_total"), decodes)
	m["automaton.backtracks_per_decode"] = ratio(d.get("raptrack_automaton_backtracks_total"), decodes)
	m["speccfa.mined_per_session"] = ratio(d.get("raptrack_mined_sessions_total"), n)
	m["speccfa.promotions"] = d.get("raptrack_dict_promotions_total")
	m["journal.fsync_us"] = us(d.histMean("raptrack_journal_fsync_seconds"))
	m["journal.records_per_fsync"] = ratio(d.get("raptrack_journal_appended_total"), d.get("raptrack_journal_fsyncs_total"))
	m["stream.slice_verify_us"] = us(d.histMean("raptrack_stream_slice_verify_seconds"))
	hijacks := 0
	for _, r := range win {
		if r.job.hijack {
			hijacks++
		}
	}
	m["stream.alarms_per_hijack"] = ratio(d.sum("raptrack_stream_alarms_total"), float64(hijacks))
	m["stream.heal_acks"] = d.get("raptrack_heal_acks_total")
}

// checkValidity voids a window whose gateway counters show the workload
// missed the layers it exists to load: steady must ride the verdict cache
// under a settled dictionary, diverse must miss it. Such a window
// measured another path than the one its numbers are compared against.
func checkValidity(out *runOutcome, w *workload) {
	m := out.Metrics
	switch {
	case w.rate > 0 && (m["verify.cache_hit_ratio"] < 0.99 || m["speccfa.promotions"] > 0):
		out.problem("steady window: cache hit ratio %.4f (want >= 0.99), %v dictionary promotions (want 0)",
			m["verify.cache_hit_ratio"], m["speccfa.promotions"])
	case w.pool > 0 && m["verify.cache_hit_ratio"] > 0.05:
		out.problem("diverse window: cache hit ratio %.4f (want <= 0.05)", m["verify.cache_hit_ratio"])
	}
}

// checkGates applies the correctness gates to every session this gateway
// served (cold-start probes included) against its final, drained
// /metrics: every honest verdict OK, every hijack an attack verdict, no
// BUSY, and the gateway's verdict tallies equal to the generator's.
func checkGates(out *runOutcome, all []result, final scrape) {
	var ok, attack, wrong, busy int
	for _, r := range all {
		switch {
		case r.busy:
			busy++
		case r.err == nil && r.ok:
			ok++
		case r.attackVerdict():
			attack++
		}
		if !r.correct() {
			wrong++
			if wrong <= 5 {
				out.problem("session %d (%s, hijack=%v): ok=%v code=%v err=%v", r.job.seq, r.job.app, r.job.hijack, r.ok, r.code, r.err)
			}
		}
	}
	if wrong > 0 {
		out.problem("%d of %d sessions got the wrong outcome", wrong, len(all))
	}
	if busy > 0 {
		out.problem("%d sessions shed with BUSY", busy)
	}
	gOK := final.get("raptrack_verdicts_total", "verdict", "ok")
	gAttack := final.get("raptrack_verdicts_total", "verdict", "attack")
	gInc := final.get("raptrack_verdicts_total", "verdict", "inconclusive")
	if gOK != float64(ok) || gAttack != float64(attack) || gInc != 0 {
		out.problem("gateway verdict tallies ok=%v attack=%v inconclusive=%v, generator saw ok=%d attack=%d",
			gOK, gAttack, gInc, ok, attack)
	}
	if f := final.get("raptrack_sessions_failed_total"); f != 0 {
		out.problem("gateway counted %v failed sessions", f)
	}
	if s := final.sum("raptrack_sessions_shed_total"); s != 0 {
		out.problem("gateway shed %v sessions", s)
	}
}
