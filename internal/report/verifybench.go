package report

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"time"

	"raptrack/internal/apps"
	"raptrack/internal/attest"
	"raptrack/internal/core"
	"raptrack/internal/verify"
)

// VerifyBenchApps is the workload subset the verifier-core benchmark
// covers by default: one short session (fibcall), the mid-sized
// peripheral-driven workloads the gateway serves in its selftest
// (prime, gps, crc32), and the longest evaluation stream (matmult).
var VerifyBenchApps = []string{"fibcall", "prime", "gps", "crc32", "matmult"}

// VerifyBenchResult is one cell of the engine × cache matrix for one
// workload, or its reject cell. The JSON encoding of the full matrix is
// the BENCH_verify.json artifact CI uploads per PR, so verifier-core
// regressions are visible without re-running the suite locally.
type VerifyBenchResult struct {
	App    string `json:"app"`
	Engine string `json:"engine"` // "interp", "automaton" or "reject"
	Cache  bool   `json:"cache"`

	NsPerOp        int64   `json:"ns_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	BytesPerOp     int64   `json:"bytes_per_op"`
	SessionsPerSec float64 `json:"sessions_per_sec"`
	Iterations     int     `json:"iterations"`
	LogBytes       int     `json:"log_bytes"`
}

// VerifyBenchReport is the top-level BENCH_verify.json document.
type VerifyBenchReport struct {
	Suite   string              `json:"suite"`
	Budget  string              `json:"budget_per_cell"`
	Results []VerifyBenchResult `json:"results"`
}

// VerifyBench measures end-to-end verification of real attested evidence
// for each named workload through the 2x2 engine matrix: interpretive
// pushdown search vs compiled automaton, with and without the
// cross-session summary cache. Each cell reuses one frozen evidence
// stream (attested once up front), so the numbers isolate the verifier
// core — no emulation, signing, or network in the loop. A fifth cell per
// workload, engine "reject", times the gateway's path for a hijacked
// session (see measureReject). budget is the minimum measured wall time
// per cell; <= 0 picks a default suitable for CI (300ms).
func VerifyBench(names []string, budget time.Duration) ([]VerifyBenchResult, error) {
	if budget <= 0 {
		budget = 300 * time.Millisecond
	}
	var out []VerifyBenchResult
	for _, name := range names {
		a, err := apps.Get(name)
		if err != nil {
			return nil, err
		}
		link, err := core.LinkForCFA(a.Build(), core.DefaultLinkOptions())
		if err != nil {
			return nil, fmt.Errorf("report: %s link: %w", name, err)
		}
		key, err := attest.GenerateHMACKey()
		if err != nil {
			return nil, err
		}
		prover, err := core.NewProver(link, key, core.ProverConfig{SetupMem: a.SetupMem(), MaxSteps: a.MaxSteps})
		if err != nil {
			return nil, err
		}
		chal, err := attest.NewChallenge(name)
		if err != nil {
			return nil, err
		}
		reports, stats, err := prover.Attest(chal)
		if err != nil {
			return nil, fmt.Errorf("report: %s attest: %w", name, err)
		}

		for _, mode := range []struct {
			engine string
			cache  bool
		}{
			{"interp", false},
			{"interp", true},
			{"automaton", false},
			{"automaton", true},
		} {
			opts := []verify.Option{verify.WithAutomaton(mode.engine == "automaton")}
			if mode.cache {
				// A fresh cache per cell: hit rates reflect this
				// stream alone, not a previous cell's residue.
				opts = append(opts, verify.WithCache(verify.NewCache(64<<20)))
			}
			v := core.NewVerifier(link, key, opts...)
			r, err := measureVerify(v, chal, reports, budget)
			if err != nil {
				return nil, fmt.Errorf("report: %s %s/cache=%v: %w", name, mode.engine, mode.cache, err)
			}
			r.App = name
			r.Engine = mode.engine
			r.Cache = mode.cache
			r.LogBytes = stats.CFLogBytes
			out = append(out, r)
		}

		v := core.NewVerifier(link, key, verify.WithCache(verify.NewCache(64<<20)))
		r, err := measureReject(v, key, chal, reports, budget)
		if err != nil {
			return nil, fmt.Errorf("report: %s reject: %w", name, err)
		}
		r.App, r.Engine, r.Cache, r.LogBytes = name, "reject", true, stats.CFLogBytes
		out = append(out, r)
	}
	return out, nil
}

// rejectPositions are the fixed hijack positions of the reject cell, as
// fractions of the chain's whole packets.
var rejectPositions = [3]float64{0.25, 0.5, 0.75}

// measureReject times the verdict a compromised device draws at a
// gateway: a cache-attached verifier runs VerifyWithAutomaton, the
// automaton does not accept, and the interpreter renders the reject. Op i
// overwrites the packet at rejectPositions[i%3] with a transfer between
// two uninstrumented addresses — a code-reuse gadget unique to the op, so
// every op misses the verdict cache as a fleet's distinct hijacks do —
// and re-signs that report. The copy and the signature are in the timed
// loop; they cost microseconds against the milliseconds of a reject.
func measureReject(v *verify.Verifier, key *attest.HMACKey, chal attest.Challenge, reports []*attest.Report, budget time.Duration) (VerifyBenchResult, error) {
	total := 0
	for _, r := range reports {
		total += len(r.CFLog) / 8
	}
	if total == 0 {
		return VerifyBenchResult{}, fmt.Errorf("no report holds a whole packet")
	}
	hijacked := func(op int) ([]*attest.Report, error) {
		k := min(int(rejectPositions[op%len(rejectPositions)]*float64(total)), total-1)
		out := append([]*attest.Report(nil), reports...)
		for i, r := range reports {
			if n := len(r.CFLog) / 8; k >= n {
				k -= n
				continue
			}
			rr := *r
			rr.CFLog = append([]byte(nil), r.CFLog...)
			gadget := 0x8000_0000 | (uint32(op+1)&0x03ff_ffff)<<4
			binary.LittleEndian.PutUint32(rr.CFLog[8*k:], gadget)
			binary.LittleEndian.PutUint32(rr.CFLog[8*k+4:], gadget+4)
			if err := attest.SignReport(&rr, key); err != nil {
				return nil, err
			}
			out[i] = &rr
			break
		}
		return out, nil
	}
	reject := func(op int) error {
		hj, err := hijacked(op)
		if err != nil {
			return err
		}
		vd, err := v.VerifyWithAutomaton(chal, hj, nil, v.Automaton())
		if err != nil {
			return err
		}
		if vd.OK {
			return fmt.Errorf("hijacked stream accepted (op %d)", op)
		}
		return nil
	}
	// Warm-up: one reject per position, so the segment cache holds what
	// a gateway's would after its first hijacks.
	op := 0
	for ; op < len(rejectPositions); op++ {
		if err := reject(op); err != nil {
			return VerifyBenchResult{}, err
		}
	}
	return timeOps(budget, func() error {
		op++
		return reject(op)
	})
}

// measureVerify times repeated verifications of one frozen evidence
// stream.
func measureVerify(v *verify.Verifier, chal attest.Challenge, reports []*attest.Report, budget time.Duration) (VerifyBenchResult, error) {
	// One warm-up op validates the verdict (and, cache on, pays the
	// cold-miss fill so steady-state numbers describe the hit path).
	verdict, err := v.Verify(chal, reports)
	if err != nil {
		return VerifyBenchResult{}, err
	}
	if !verdict.OK {
		return VerifyBenchResult{}, fmt.Errorf("benign stream rejected: %s", verdict.Reason())
	}
	return timeOps(budget, func() error {
		_, err := v.Verify(chal, reports)
		return err
	})
}

// timeOps runs op until budget wall time has elapsed and renders per-op
// figures. Allocation counts come from runtime.MemStats deltas over the
// whole loop — coarser than the testing package's per-op accounting, but
// stable at the iteration counts the budget yields, and free of a
// testing.B dependency in a non-test build.
func timeOps(budget time.Duration, op func() error) (VerifyBenchResult, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	iters := 0
	var elapsed time.Duration
	for elapsed < budget {
		if err := op(); err != nil {
			return VerifyBenchResult{}, err
		}
		iters++
		elapsed = time.Since(start)
	}
	runtime.ReadMemStats(&after)

	ns := elapsed.Nanoseconds() / int64(iters)
	r := VerifyBenchResult{
		NsPerOp:     ns,
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / int64(iters),
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / int64(iters),
		Iterations:  iters,
	}
	if ns > 0 {
		r.SessionsPerSec = 1e9 / float64(ns)
	}
	return r, nil
}

// VerifyBenchTable renders the matrix for terminal consumption, one row
// per (app, engine, cache) cell plus the headline speedup column
// (automaton over interpreter at equal cache setting). Reject rows time
// a hijacked session's gateway path and carry no speedup.
func VerifyBenchTable(rs []VerifyBenchResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Verifier core: interpreter vs compiled automaton (uncached and cached); reject: a hijacked session's gateway path\n")
	fmt.Fprintf(&b, "%-12s %-10s %-6s %14s %12s %12s %10s %9s\n",
		"app", "engine", "cache", "ns/op", "sessions/s", "allocs/op", "B/op", "speedup")
	interp := map[string]int64{} // app|cache -> interpreter ns/op
	for _, r := range rs {
		if r.Engine == "interp" {
			interp[fmt.Sprintf("%s|%v", r.App, r.Cache)] = r.NsPerOp
		}
	}
	for _, r := range rs {
		speedup := ""
		if base := interp[fmt.Sprintf("%s|%v", r.App, r.Cache)]; r.Engine == "automaton" && base > 0 && r.NsPerOp > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(base)/float64(r.NsPerOp))
		}
		fmt.Fprintf(&b, "%-12s %-10s %-6v %14d %12.1f %12d %10d %9s\n",
			r.App, r.Engine, r.Cache, r.NsPerOp, r.SessionsPerSec, r.AllocsPerOp, r.BytesPerOp, speedup)
	}
	return b.String()
}
