package raptrack

// Benchmark harness: one benchmark family per table/figure of the paper's
// evaluation (see DESIGN.md §6 for the experiment index). Wall-clock time
// measures the simulator; the paper's actual quantities (cycles, CFLog
// bytes, code bytes) are attached as custom metrics so `go test -bench`
// output regenerates each figure's series:
//
//	BenchmarkFig1a  naive-MTB CFLog bytes vs TRACES      (cflog_B, ratio)
//	BenchmarkFig1b  TRACES runtime vs baseline           (cycles, overhead_pct)
//	BenchmarkFig8   runtime: naive / RAP-Track / TRACES  (cycles, overhead_pct)
//	BenchmarkFig9   CFLog: naive / RAP-Track / TRACES    (cflog_B)
//	BenchmarkFig10  code size: RAP-Track / TRACES        (code_B, overhead_pct)
//	BenchmarkVerify evidence-verification throughput     (packets, transfers)
//	BenchmarkAblation* (NOP padding, loop optimization)
//
// `go run ./cmd/benchsuite` prints the same data as aligned tables.

import (
	"testing"

	"raptrack/internal/apps"
	"raptrack/internal/attest"
	"raptrack/internal/baseline/naive"
	"raptrack/internal/baseline/traces"
	"raptrack/internal/core"
	"raptrack/internal/linker"
	"raptrack/internal/speccfa"
	"raptrack/internal/trace/pipeline"
	"raptrack/internal/verify"
)

func evalApps(b *testing.B) []apps.App {
	b.Helper()
	out := make([]apps.App, 0, len(apps.EvalOrder))
	for _, n := range apps.EvalOrder {
		a, err := apps.Get(n)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, a)
	}
	return out
}

func runNaive(b *testing.B, a apps.App) *naive.Result {
	b.Helper()
	res, err := naive.Run(a.Build(), naive.Config{SetupMem: a.SetupMem(), MaxSteps: a.MaxSteps})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func runTraces(b *testing.B, a apps.App) *traces.Result {
	b.Helper()
	out, err := traces.Instrument(a.Build(), traces.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	res, err := traces.Run(out, traces.Config{SetupMem: a.SetupMem(), MaxSteps: a.MaxSteps})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func runRAP(b *testing.B, a apps.App, opts linker.Options) (core.RunStats, []*attest.Report, *linker.Output, *attest.HMACKey, attest.Challenge) {
	b.Helper()
	link, err := core.LinkForCFA(a.Build(), opts)
	if err != nil {
		b.Fatal(err)
	}
	key, err := attest.GenerateHMACKey()
	if err != nil {
		b.Fatal(err)
	}
	prover, err := core.NewProver(link, key, core.ProverConfig{SetupMem: a.SetupMem(), MaxSteps: a.MaxSteps})
	if err != nil {
		b.Fatal(err)
	}
	chal, err := attest.NewChallenge(a.Name)
	if err != nil {
		b.Fatal(err)
	}
	reports, stats, err := prover.Attest(chal)
	if err != nil {
		b.Fatal(err)
	}
	return stats, reports, link, key, chal
}

func overheadPct(x, base uint64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (float64(x) - float64(base)) / float64(base)
}

// BenchmarkFig1a regenerates Fig. 1(a): naive-MTB CFLog sizes vs TRACES.
func BenchmarkFig1a(b *testing.B) {
	for _, a := range evalApps(b) {
		a := a
		b.Run(a.Name, func(b *testing.B) {
			var nBytes, tBytes uint64
			for i := 0; i < b.N; i++ {
				nBytes = runNaive(b, a).CFLogBytes
				tBytes = runTraces(b, a).CFLogBytes
			}
			b.ReportMetric(float64(nBytes), "naive_cflog_B")
			b.ReportMetric(float64(tBytes), "traces_cflog_B")
			b.ReportMetric(float64(nBytes)/float64(tBytes), "naive/traces_x")
		})
	}
}

// BenchmarkFig1b regenerates Fig. 1(b): instrumentation runtime overhead.
func BenchmarkFig1b(b *testing.B) {
	for _, a := range evalApps(b) {
		a := a
		b.Run(a.Name, func(b *testing.B) {
			var base, tr uint64
			for i := 0; i < b.N; i++ {
				base = runNaive(b, a).Cycles // naive == uninstrumented runtime
				tr = runTraces(b, a).Cycles
			}
			b.ReportMetric(float64(base), "baseline_cyc")
			b.ReportMetric(float64(tr), "traces_cyc")
			b.ReportMetric(float64(tr)/float64(base), "traces/baseline_x")
		})
	}
}

// BenchmarkFig8 regenerates Fig. 8: runtime across all four systems.
func BenchmarkFig8(b *testing.B) {
	for _, a := range evalApps(b) {
		a := a
		b.Run(a.Name, func(b *testing.B) {
			var nCyc, rCyc, tCyc uint64
			for i := 0; i < b.N; i++ {
				nCyc = runNaive(b, a).Cycles
				stats, _, _, _, _ := runRAP(b, a, core.DefaultLinkOptions())
				rCyc = stats.Cycles
				tCyc = runTraces(b, a).Cycles
			}
			b.ReportMetric(float64(nCyc), "naive_cyc")
			b.ReportMetric(float64(rCyc), "rap_cyc")
			b.ReportMetric(float64(tCyc), "traces_cyc")
			b.ReportMetric(overheadPct(rCyc, nCyc), "rap_overhead_pct")
			b.ReportMetric(overheadPct(tCyc, nCyc), "traces_overhead_pct")
		})
	}
}

// BenchmarkFig9 regenerates Fig. 9: CFLog size across systems.
func BenchmarkFig9(b *testing.B) {
	for _, a := range evalApps(b) {
		a := a
		b.Run(a.Name, func(b *testing.B) {
			var nB, rB, tB uint64
			for i := 0; i < b.N; i++ {
				nB = runNaive(b, a).CFLogBytes
				stats, _, _, _, _ := runRAP(b, a, core.DefaultLinkOptions())
				rB = uint64(stats.CFLogBytes)
				tB = runTraces(b, a).CFLogBytes
			}
			b.ReportMetric(float64(nB), "naive_cflog_B")
			b.ReportMetric(float64(rB), "rap_cflog_B")
			b.ReportMetric(float64(tB), "traces_cflog_B")
		})
	}
}

// BenchmarkFig10 regenerates Fig. 10: program memory overhead.
func BenchmarkFig10(b *testing.B) {
	for _, a := range evalApps(b) {
		a := a
		b.Run(a.Name, func(b *testing.B) {
			var baseB, rapB, trB uint32
			for i := 0; i < b.N; i++ {
				link, err := core.LinkForCFA(a.Build(), core.DefaultLinkOptions())
				if err != nil {
					b.Fatal(err)
				}
				baseB = link.Stats.CodeBefore
				rapB = link.Stats.CodeAfter
				tout, err := traces.Instrument(a.Build(), traces.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				trB = tout.Stats.CodeAfter
			}
			b.ReportMetric(float64(baseB), "baseline_code_B")
			b.ReportMetric(float64(rapB), "rap_code_B")
			b.ReportMetric(float64(trB), "traces_code_B")
			b.ReportMetric(overheadPct(uint64(rapB), uint64(baseB)), "rap_overhead_pct")
			b.ReportMetric(overheadPct(uint64(trB), uint64(baseB)), "traces_overhead_pct")
		})
	}
}

// BenchmarkVerify measures verifier-side path reconstruction throughput
// (the pushdown-summarization search) on real evidence.
func BenchmarkVerify(b *testing.B) {
	for _, a := range evalApps(b) {
		a := a
		b.Run(a.Name, func(b *testing.B) {
			_, reports, link, key, chal := runRAP(b, a, core.DefaultLinkOptions())
			verifier := core.NewVerifier(link, key)
			b.ResetTimer()
			var transfers, packets uint64
			for i := 0; i < b.N; i++ {
				verdict, err := verifier.Verify(chal, reports)
				if err != nil {
					b.Fatal(err)
				}
				if !verdict.OK {
					b.Fatalf("rejected: %s", verdict.Reason())
				}
				transfers = verdict.Transfers
				packets = uint64(verdict.Packets)
			}
			b.ReportMetric(float64(packets), "packets")
			b.ReportMetric(float64(transfers), "transfers")
		})
	}
}

// BenchmarkAblationNopPad measures packet loss when the MTBAR stubs are
// not padded against the MTB activation latency (§V-C).
func BenchmarkAblationNopPad(b *testing.B) {
	a, err := apps.Get("prime")
	if err != nil {
		b.Fatal(err)
	}
	for _, pad := range []int{0, 1, 2} {
		pad := pad
		b.Run(map[int]string{0: "nopad", 1: "pad1", 2: "pad2"}[pad], func(b *testing.B) {
			opts := core.DefaultLinkOptions()
			opts.NopPad = pad
			var dropped float64
			for i := 0; i < b.N; i++ {
				link, err := core.LinkForCFA(a.Build(), opts)
				if err != nil {
					b.Fatal(err)
				}
				key, _ := attest.GenerateHMACKey()
				prover, err := core.NewProver(link, key, core.ProverConfig{SetupMem: a.SetupMem()})
				if err != nil {
					b.Fatal(err)
				}
				chal, _ := attest.NewChallenge(a.Name)
				if _, _, err := prover.Attest(chal); err != nil {
					b.Fatal(err)
				}
				dropped = float64(prover.Engine.MTB.DroppedArming)
			}
			b.ReportMetric(dropped, "dropped_packets")
		})
	}
}

// BenchmarkAblationLoopOpt measures the §IV-D loop optimization's effect
// on evidence volume and runtime.
func BenchmarkAblationLoopOpt(b *testing.B) {
	a, err := apps.Get("syringe")
	if err != nil {
		b.Fatal(err)
	}
	configs := []struct {
		name string
		mod  func(*linker.Options)
	}{
		{"nested", func(*linker.Options) {}},
		{"innermost", func(o *linker.Options) { o.NestedLoopOpt = false }},
		{"off", func(o *linker.Options) { o.LoopOpt = false }},
	}
	for _, cfg := range configs {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			opts := core.DefaultLinkOptions()
			cfg.mod(&opts)
			var cyc, logB uint64
			for i := 0; i < b.N; i++ {
				stats, _, _, _, _ := runRAP(b, a, opts)
				cyc, logB = stats.Cycles, uint64(stats.CFLogBytes)
			}
			b.ReportMetric(float64(cyc), "cycles")
			b.ReportMetric(float64(logB), "cflog_B")
		})
	}
}

// BenchmarkSimulator measures raw simulator throughput (instructions per
// wall-clock second) on the longest workload.
func BenchmarkSimulator(b *testing.B) {
	a, err := apps.Get("prime")
	if err != nil {
		b.Fatal(err)
	}
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res := runNaive(b, a)
		instrs += res.Steps
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim_instrs/s")
}

// BenchmarkSpecCFA measures the SpecCFA speculation extension: evidence
// bytes with a dictionary mined from a prior session vs without.
func BenchmarkSpecCFA(b *testing.B) {
	for _, name := range []string{"gps", "ultrasonic", "prime"} {
		name := name
		b.Run(name, func(b *testing.B) {
			a, err := apps.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			// Mine once from a baseline session.
			stats1, reports1, link, key, _ := runRAP(b, a, core.DefaultLinkOptions())
			var log []byte
			for _, r := range reports1 {
				log = append(log, r.CFLog...)
			}
			packets, derr := pipeline.New(pipeline.Raw(pipeline.FormatMTB, log)).Packets()
			if derr != nil {
				b.Fatal(derr)
			}
			dict, err := speccfa.Mine(packets, 8, 2, 8)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var compressed int
			for i := 0; i < b.N; i++ {
				prover, err := core.NewProver(link, key, core.ProverConfig{
					SetupMem: a.SetupMem(), Speculation: dict,
				})
				if err != nil {
					b.Fatal(err)
				}
				chal, err := attest.NewChallenge(a.Name)
				if err != nil {
					b.Fatal(err)
				}
				reports, stats, err := prover.Attest(chal)
				if err != nil {
					b.Fatal(err)
				}
				verdict, err := core.NewVerifier(link, key, verify.WithSpeculation(dict)).Verify(chal, reports)
				if err != nil || !verdict.OK {
					b.Fatalf("verify: %v %v", err, verdict)
				}
				compressed = stats.CFLogBytes
			}
			b.ReportMetric(float64(stats1.CFLogBytes), "plain_cflog_B")
			b.ReportMetric(float64(compressed), "spec_cflog_B")
			b.ReportMetric(float64(stats1.CFLogBytes)/float64(compressed), "reduction_x")
		})
	}
}

// BenchmarkVerifyEffort compares verifier-side reconstruction effort for
// RAP-Track evidence ((src,dst) packets) vs TRACES evidence (dst-only
// words): source annotations disambiguate sites and shrink the search.
func BenchmarkVerifyEffort(b *testing.B) {
	for _, name := range []string{"crc32", "gps", "bubblesort"} {
		name := name
		b.Run(name, func(b *testing.B) {
			a, err := apps.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			_, reports, link, key, chal := runRAP(b, a, core.DefaultLinkOptions())
			rapVerifier := core.NewVerifier(link, key)
			tout, err := traces.Instrument(a.Build(), traces.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			tres, err := traces.Run(tout, traces.Config{SetupMem: a.SetupMem()})
			if err != nil {
				b.Fatal(err)
			}
			var rapEvals, trEvals float64
			for i := 0; i < b.N; i++ {
				rv, err := rapVerifier.Verify(chal, reports)
				if err != nil || !rv.OK {
					b.Fatalf("rap verify: %v %v", err, rv)
				}
				tv := traces.Verify(tout, tres.Evidence)
				if !tv.OK {
					b.Fatalf("traces verify: %s", tv.Reason)
				}
				rapEvals = float64(rv.Passes)
				trEvals = float64(tv.Evals)
			}
			b.ReportMetric(rapEvals, "rap_evals")
			b.ReportMetric(trEvals, "traces_evals")
			b.ReportMetric(trEvals/rapEvals, "traces/rap_x")
		})
	}
}
