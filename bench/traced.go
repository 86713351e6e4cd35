package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"raptrack/internal/attest"
	"raptrack/internal/core"
	"raptrack/internal/journal"
	"raptrack/internal/remote"
	"raptrack/internal/speccfa"
	"raptrack/internal/trace"
	"raptrack/internal/trace/pipeline"
	"raptrack/internal/verify"
)

// The traced run replays a seeded sample of a workload's sessions
// single-threaded and in process, calling each layer's public functions
// the way the gateway does, with one span around every call. Spans time
// both the wall clock and the thread's CPU clock; per-layer metrics are
// CPU self time, so the layers add up against the gateway's measured CPU
// per session. Tracing stays out of the product: the spans wrap calls
// from the benchmark's side of the API.

// span is one traced call.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: a session root
	Session int64  `json:"session"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // wall clock since the trace began
	End     int64  `json:"end_ns"`
	CPU     int64  `json:"cpu_ns"` // thread CPU time inside the span
	cpu0    int64
}

// tracer keeps spans in memory until the run ends. It must be used from
// one goroutine locked to its OS thread, so the thread CPU clock is the
// traced code's own.
type tracer struct {
	t0    time.Time
	spans []span
}

// threadCPU reads CLOCK_THREAD_CPUTIME_ID for the calling OS thread.
func threadCPU() int64 {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3
	// Reading the calling thread's own clock into valid memory cannot fail.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

func (t *tracer) begin(name string, parent int, session int64) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Session: session, Name: name,
		Start: int64(time.Since(t.t0)), cpu0: threadCPU(),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	s := &t.spans[id-1]
	s.CPU = threadCPU() - s.cpu0
	s.End = int64(time.Since(t.t0))
}

// call traces fn as one span.
func (t *tracer) call(name string, parent int, session int64, fn func()) {
	id := t.begin(name, parent, session)
	fn()
	t.end(id)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedApp mirrors the gateway's per-app state: the cache-attached
// verifier, the live dictionary it served, and the machine compiled for
// that dictionary; plus a cache-less interpreter-only verifier.
type tracedApp struct {
	v      *verify.Verifier
	interp *verify.Verifier
	dict   *speccfa.Dictionary
	dictB  []byte
	aut    *verify.Automaton
}

// sessionCost is one replayed session's CPU per layer (ns); layers the
// session did not run are absent.
type sessionCost struct {
	hijack bool
	layers map[string]int64
	slices int
	hit    bool // the gateway's verify call was a verdict-cache hit
	alloc  uint64
}

// tracedRun replays the sample and fills the per-layer metrics and the
// ledger; the spans go to <spansDir>/<workload>.spans.jsonl.
func tracedRun(out *runOutcome, w *workload, cfg config, specs map[string]*appSpec, cl *client, ev evidence, tmp string) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	j, err := journal.Open(filepath.Join(tmp, "traced-journal"), journal.Options{Fsync: journal.SyncEach})
	if err != nil {
		return err
	}
	defer j.Close()
	state := map[string]*tracedApp{}
	for _, name := range w.apps {
		s := specs[name]
		ta := &tracedApp{
			v:      core.NewVerifier(s.link, s.key).With(verify.WithCache(verify.NewCache(0))),
			interp: core.NewVerifier(s.link, s.key, verify.WithAutomaton(false)),
		}
		if d, ok := cl.lastDict.Load(name); ok {
			ta.dictB = d.([]byte)
			if ta.dict, err = speccfa.DecodeDictionary(ta.dictB); err != nil {
				return err
			}
		}
		if ta.aut, err = ta.v.CompileAutomaton(ta.dict); err != nil {
			return err
		}
		state[name] = ta
	}
	sample := newJobGen(w, cfg.seed).sample(cfg.tracedHonest, cfg.tracedHijacked)

	// Warm the verdict caches the way the window left the gateway's: one
	// untraced pass over the sample's distinct honest evidence.
	if w.pool == 0 {
		for _, app := range w.apps {
			chain, err := ev.chain(job{app: app}, state[app].dictB)
			if err != nil {
				return err
			}
			chal, err := attest.NewChallenge(app)
			if err != nil {
				return err
			}
			reports, err := signed(chain, specs[app].key, chal.Nonce, nil)
			if err != nil {
				return err
			}
			if _, err := state[app].v.VerifyWithAutomaton(chal, reports, state[app].dict, state[app].aut); err != nil {
				return err
			}
		}
	}

	tr := &tracer{t0: time.Now()}
	var costs []sessionCost
	for _, jb := range sample {
		c, err := replay(tr, w, jb, state[jb.app], specs[jb.app], ev, j)
		if err != nil {
			return fmt.Errorf("traced session %d (%s): %w", jb.seq, jb.app, err)
		}
		costs = append(costs, c)
	}
	if err := tr.write(filepath.Join(cfg.spansDir, w.name+".spans.jsonl")); err != nil {
		return err
	}
	fillLedger(out, w, costs)
	return nil
}

// replay runs one session through the layers, tracing each call.
func replay(tr *tracer, w *workload, jb job, ta *tracedApp, spec *appSpec, ev evidence, jnl *journal.Journal) (sessionCost, error) {
	c := sessionCost{hijack: jb.hijack, layers: map[string]int64{}}
	// Untraced preparation: what the device sends.
	chal, err := attest.NewChallenge(jb.app)
	if err != nil {
		return c, err
	}
	chain, err := ev.chain(jb, ta.dictB)
	if err != nil {
		return c, err
	}
	stream := w.streamWatermark > 0
	var hj *hijack
	if jb.hijack {
		if hj, err = placeHijack(jb, chain, stream); err != nil {
			return c, err
		}
	}
	sent, err := signed(chain, spec.key, chal.Nonce, hj)
	if err != nil {
		return c, err
	}
	var wire []byte
	wire = appendFrame(wire, remote.FrameHello, remote.EncodeHelloID(jb.app, jb.device))
	if stream {
		for _, f := range sliceFrames(chal.Nonce, sent) {
			wire = append(wire, f...)
		}
	} else {
		wire = append(wire, rprtFrames(sent)...)
	}

	root := tr.begin("session", 0, jb.seq)
	var frames [][]byte
	var typ []byte
	tr.call("remote.frame_decode", root, jb.seq, func() {
		r := bytes.NewReader(wire)
		for {
			t, p, err := remote.ReadFrame(r)
			if err != nil {
				if err != io.EOF {
					frames = nil
				}
				return
			}
			typ = append(typ, t)
			frames = append(frames, p)
		}
	})
	if len(frames) == 0 || typ[0] != remote.FrameHello {
		return c, fmt.Errorf("replayed wire stream does not decode")
	}
	var reports []*attest.Report
	var derr error
	tr.call("attest.decode_report", root, jb.seq, func() {
		if _, _, derr = remote.ParseHelloID(frames[0]); derr != nil {
			return
		}
		tag := remote.SliceTagInit(chal.Nonce)
		for _, p := range frames[1:] {
			if stream {
				sl, err := remote.DecodeSlice(p)
				if err != nil {
					derr = err
					return
				}
				rep, err := attest.DecodeReport(sl.Report)
				if err != nil {
					derr = err
					return
				}
				if tag = remote.SliceTagNext(tag, rep.Auth); tag != sl.Tag {
					derr = fmt.Errorf("slice tag chain broken")
					return
				}
				reports = append(reports, rep)
				continue
			}
			rep, err := attest.DecodeReport(p)
			if err != nil {
				derr = err
				return
			}
			reports = append(reports, rep)
		}
	})
	if derr != nil {
		return c, derr
	}

	// The gateway's verification: one batch call, or the streamed feeds
	// and seal.
	var vd *verify.Verdict
	var verr error
	var alarmed bool
	if stream {
		sess := ta.v.Begin(chal, verify.SessionDictionary(ta.dict), verify.SessionAutomaton(ta.aut))
		for _, rep := range reports {
			tr.call("verify.session_feed", root, jb.seq, func() {
				if sv := sess.Feed(rep); sv.Status.Definitive() {
					alarmed = true
				}
			})
		}
		c.slices = len(reports)
		tr.call("verify.session_seal", root, jb.seq, func() { vd, verr = sess.Seal() })
	} else {
		tr.call("verify.verify", root, jb.seq, func() {
			vd, verr = ta.v.VerifyWithAutomaton(chal, reports, ta.dict, ta.aut)
		})
	}
	if verr != nil {
		return c, verr
	}
	if vd.OK == jb.hijack {
		return c, fmt.Errorf("replayed verdict ok=%v for hijack=%v", vd.OK, jb.hijack)
	}
	c.hit = vd.Timing.CacheHit

	// The verifier's breakdown, re-run layer by layer on the same evidence.
	var log []byte
	var wraps, dropped uint64
	tr.call("attest.chain_auth", root, jb.seq, func() {
		asm := attest.NewChainAssembler(chal, spec.key)
		for _, rep := range reports {
			if derr = asm.Add(rep); derr != nil {
				return
			}
			wraps += uint64(rep.Wraps)
			dropped += uint64(rep.Dropped)
		}
		log, _, derr = asm.Finish()
	})
	if derr != nil {
		return c, derr
	}
	var packets []trace.Packet
	tr.call("pipeline.mtb_decode", root, jb.seq, func() {
		var perr *pipeline.Error
		if packets, perr = pipeline.New(pipeline.MTBChain(log, wraps, dropped), pipeline.FailOnLoss()).Packets(); perr != nil {
			derr = perr
		}
	})
	if derr != nil {
		return c, derr
	}
	if ta.dict.Len() > 0 {
		tr.call("pipeline.expand", root, jb.seq, func() {
			var perr *pipeline.Error
			if packets, perr = pipeline.Expand(ta.dict, packets); perr != nil {
				derr = perr
			}
		})
		if derr != nil {
			return c, derr
		}
	}
	if !c.hit && ta.aut != nil {
		tr.call("automaton.decode", root, jb.seq, func() { ta.aut.Decode(packets, 4096, 500e6) })
	}
	if jb.hijack {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		tr.call("verify.interp", root, jb.seq, func() { ta.interp.ReplayPackets(packets) })
		runtime.ReadMemStats(&ms1)
		c.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	}

	if vd.OK {
		tr.call("speccfa.mine", root, jb.seq, func() { _, _ = speccfa.Mine(vd.Evidence, 8, 2, 8) })
	}
	tr.call("journal.append", root, jb.seq, func() {
		e := journal.Entry{Kind: journal.KindVerdict, App: jb.app, Device: jb.device, DictVersion: 1,
			Payload: attest.EncodeEvidence(chal, reports)}
		if !vd.OK {
			e.Outcome, e.Code, e.Detail = journal.OutcomeAttack, vd.Code, vd.Detail
		}
		derr = jnl.Append(e)
	})
	if derr != nil {
		return c, derr
	}
	tr.call("remote.frame_encode", root, jb.seq, func() {
		var b bytes.Buffer
		if len(ta.dictB) > 0 {
			_ = remote.WriteFrame(&b, remote.FrameDict, ta.dictB)
		}
		_ = remote.WriteFrame(&b, remote.FrameChal, chal.Encode())
		if alarmed {
			_ = remote.WriteFrame(&b, remote.FrameHeal, remote.EncodeHeal(remote.Heal{Directive: remote.HealQuarantine, Detail: vd.Detail}))
		}
		_ = remote.WriteFrame(&b, remote.FrameVerdict, remote.EncodeVerdict(vd.OK, vd.Code, vd.Detail))
	})
	tr.end(root)

	// Layer spans are leaves under the session root, so a layer's self
	// time is its whole span.
	for _, s := range tr.spans[root:] {
		c.layers[s.Name] += s.CPU
	}
	return c, nil
}

// pathLayers are the calls a gateway session makes; the breakdown spans
// (chain_auth, mtb_decode, expand, automaton.decode, interp) re-run work
// the verify call already contains and are not added again.
var pathLayers = []string{
	"remote.frame_decode", "attest.decode_report", "verify.verify",
	"verify.session_feed", "verify.session_seal", "journal.append", "remote.frame_encode",
}

// mineEvery is the gateway's default mining cadence: every 16th accepted
// session per app is mined.
const mineEvery = 16

// fillLedger turns the replayed sessions into the per-layer metrics —
// mean CPU self time per call, in microseconds, over the sessions whose
// gateway path runs the layer — and the ledger: the layers a session of
// this workload runs, weighted by how often it runs them, against the
// gateway CPU per session the window measured.
func fillLedger(out *runOutcome, w *workload, costs []sessionCost) {
	m := out.Metrics
	us := func(ns float64) float64 { return ns / 1e3 }
	perCall := func(layer string, keep func(sessionCost) bool) float64 {
		var xs []float64
		for _, c := range costs {
			if v, ok := c.layers[layer]; ok && (keep == nil || keep(c)) {
				xs = append(xs, float64(v))
			}
		}
		return us(mean(xs))
	}
	honest := func(c sessionCost) bool { return !c.hijack }
	hijacked := func(c sessionCost) bool { return c.hijack }
	for _, l := range []string{"remote.frame_decode", "remote.frame_encode", "attest.decode_report",
		"attest.chain_auth", "pipeline.mtb_decode", "pipeline.expand", "speccfa.mine",
		"journal.append", "automaton.decode"} {
		m[l+"_us"] = perCall(l, nil)
	}
	m["verify.cached_verify_us"] = perCall("verify.verify", func(c sessionCost) bool { return c.hit })
	m["verify.interp_us"] = perCall("verify.interp", hijacked)
	var allocs []float64
	var feedNs, slices float64
	var lookups []float64
	for _, c := range costs {
		if c.hijack {
			allocs = append(allocs, float64(c.alloc)/1e6)
			continue
		}
		feedNs += float64(c.layers["verify.session_feed"])
		slices += float64(c.slices)
		// What the verify call spent beyond the layers it is made of: the
		// verdict-cache key, lookup and store.
		call := c.layers["verify.verify"] + c.layers["verify.session_seal"]
		parts := c.layers["pipeline.mtb_decode"] + c.layers["pipeline.expand"] + c.layers["automaton.decode"]
		if _, batch := c.layers["verify.verify"]; batch {
			parts += c.layers["attest.chain_auth"]
		}
		lookups = append(lookups, float64(call-parts))
	}
	m["verify.interp_alloc_mb"] = mean(allocs)
	m["verify.session_feed_us_per_slice"] = us(ratio(feedNs, slices))
	m["verify.session_seal_us"] = perCall("verify.session_seal", honest)
	m["verify.cache_lookup_us"] = us(mean(lookups))

	classSum := func(keep func(sessionCost) bool) float64 {
		var xs []float64
		for _, c := range costs {
			if !keep(c) {
				continue
			}
			var ns float64
			for _, l := range pathLayers {
				ns += float64(c.layers[l])
			}
			ns += float64(c.layers["speccfa.mine"]) / mineEvery
			xs = append(xs, ns)
		}
		return us(mean(xs))
	}
	share := 0.0
	if w.hijackEvery > 0 {
		share = 1 / float64(w.hijackEvery)
	}
	sum := (1-share)*classSum(honest) + share*classSum(hijacked)
	m["ledger.layer_sum_us"] = sum
	cpu := m["gateway_cpu_us_per_session"]
	m["ledger.unattributed_pct"] = 100 * ratio(cpu-sum, cpu)
}
