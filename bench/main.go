// Command bench drives the shipped attestation gateway (`raptrack serve`)
// from outside with four traffic mixes and reports end-to-end and
// per-layer metrics; see README.md for what each workload and metric is
// for.
//
// One workload, as an outside harness runs it:
//
//	go run . -workload steady -seed 7 -seconds 10 -trace 0
//
// The whole suite, with a JSON report:
//
//	go run . -seed 1 -out out/suite.json
//
// The benchmark is a module of its own (bench/go.mod), so from the
// repository root these read `go -C bench run . ...`.
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (end-to-end with -trace 0, per-layer
// with -trace 1). Any failed correctness gate exits 1.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errGate marks a run whose correctness gates failed: the result line is
// printed (correct=false) and the process exits non-zero.
var errGate = errors.New("correctness gate failed")

// warmup is the load before every measured window. It is fixed so that
// any two runs, of a parent and of a change, are comparable (-smoke
// shortens it: a smoke run is not a measurement).
const warmup = 3 * time.Second

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "all", "workload to run: steady, diverse, hostile, stream, or all")
		seed     = fs.Uint64("seed", 1, "workload seed: fixes every generated input")
		seconds  = fs.Int("seconds", 20, "measured window per workload, in seconds")
		traceOn  = fs.Int("trace", 1, "1: run the traced per-layer replay and report per-layer metrics last; 0: end-to-end metrics last")
		outPath  = fs.String("out", "", "write the full JSON report (header and every metric) to this file")
		runs     = fs.Int("runs", 1, "run the selection this many times with the same seed and print medians and quartiles")
		smoke    = fs.Bool("smoke", false, "about one second per workload: a check that the harness works, not a measurement")
		binPath  = fs.String("raptrack", "", "gateway binary (default: go build raptrack/cmd/raptrack into -workdir)")
		workdir  = fs.String("workdir", filepath.Join("out", "work"), "scratch directory for gateway journals and keys")
		spansDir = fs.String("spans", "out", "directory for <workload>.spans.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceOn != 0 && *traceOn != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds < 1 || *runs < 1 {
		return fmt.Errorf("-seconds and -runs must be at least 1")
	}
	var selected []*workload
	if *name == "all" {
		selected = append(selected, workloads...)
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			return err
		}
		selected = []*workload{w}
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	cfg := config{
		raptrack:   *binPath,
		workdir:    *workdir,
		seed:       *seed,
		warmup:     warmup,
		window:     time.Duration(*seconds) * time.Second,
		coldStarts: 15,
		trace:      *traceOn == 1,
		spansDir:   *spansDir,

		tracedHonest:   512,
		tracedHijacked: 64,
	}
	if *smoke {
		cfg.smoke = true
		cfg.warmup, cfg.window, cfg.coldStarts = 300*time.Millisecond, time.Second, 1
		cfg.tracedHonest, cfg.tracedHijacked = 32, 4
		for i, w := range selected {
			s := *w
			if s.pool > 0 {
				s.pool = 256
			}
			selected[i] = &s
		}
	}
	if cfg.raptrack == "" {
		bin, err := buildGateway(cfg.workdir)
		if err != nil {
			return err
		}
		cfg.raptrack = bin
	}
	hdr, err := newHeader(cfg, selected)
	if err != nil {
		return err
	}
	hdr.print(stdout)

	var all [][]*runOutcome
	allCorrect := true
	for i := 0; i < *runs; i++ {
		var set []*runOutcome
		for _, w := range selected {
			o, err := runWorkload(w, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			printOutcome(stdout, o, cfg)
			set = append(set, o)
			allCorrect = allCorrect && o.Correct
		}
		all = append(all, set)
	}
	if *runs > 1 {
		printSpread(stdout, all)
	}
	if *outPath != "" {
		if err := writeReport(*outPath, hdr, all); err != nil {
			return err
		}
	}
	line := resultLine(all[len(all)-1], cfg.trace, len(selected) > 1)
	fmt.Fprintln(stdout, line)
	if !allCorrect {
		return errGate
	}
	return nil
}

// buildGateway compiles the gateway from this module's source tree.
func buildGateway(dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "raptrack"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "raptrack/cmd/raptrack")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building the gateway: %w", err)
	}
	return bin, nil
}

// header identifies what was measured, on what: it leads every output.
type header struct {
	GitRev         string            `json:"git_rev"`
	GoVersion      string            `json:"go_version"`
	GOMAXPROCS     int               `json:"gomaxprocs"`
	NProc          int               `json:"nproc"`
	CPU            string            `json:"cpu"`
	Seed           uint64            `json:"seed"`
	WarmupS        float64           `json:"warmup_s"`
	WindowS        float64           `json:"window_s"`
	ColdStarts     int               `json:"cold_starts"`
	Load           map[string]string `json:"load"`
	RaptrackSHA256 string            `json:"raptrack_sha256"`
}

func newHeader(cfg config, ws []*workload) (*header, error) {
	sum, err := fileSHA256(cfg.raptrack)
	if err != nil {
		return nil, err
	}
	h := &header{
		GitRev:         gitRev(),
		GoVersion:      runtime.Version(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NProc:          runtime.NumCPU(),
		CPU:            cpuModel(),
		Seed:           cfg.seed,
		WarmupS:        cfg.warmup.Seconds(),
		WindowS:        cfg.window.Seconds(),
		ColdStarts:     cfg.coldStarts,
		Load:           map[string]string{},
		RaptrackSHA256: sum,
	}
	for _, w := range ws {
		load := fmt.Sprintf("closed loop, %d connections", w.inFlight)
		if w.rate > 0 {
			load = fmt.Sprintf("open loop, Poisson %.0f sessions/s, <=%d in flight", w.rate, w.inFlight)
		}
		h.Load[w.name] = load + "; " + w.why
	}
	return h, nil
}

func (h *header) print(w io.Writer) {
	fmt.Fprintf(w, "# raptrack gateway benchmark  rev %s  %s  GOMAXPROCS %d  nproc %d\n", h.GitRev, h.GoVersion, h.GOMAXPROCS, h.NProc)
	fmt.Fprintf(w, "# cpu %s\n", h.CPU)
	fmt.Fprintf(w, "# seed %d  warm-up %.1fs  window %.0fs  cold starts %d  raptrack sha256 %s\n", h.Seed, h.WarmupS, h.WindowS, h.ColdStarts, h.RaptrackSHA256)
	names := make([]string, 0, len(h.Load))
	for n := range h.Load {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# load %-8s %s\n", n, h.Load[n])
	}
}

// gitRev reads the VCS stamp the go command embeds when the benchmark is
// built inside a git checkout ("unknown" elsewhere).
func gitRev() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// printOutcome prints one run's metrics by name with units.
func printOutcome(w io.Writer, o *runOutcome, cfg config) {
	fmt.Fprintf(w, "== %s  seed %d  correct=%v  attempted=%d  failed=%d\n", o.Workload, cfg.seed, o.Correct, o.Attempted, o.Failed)
	for _, p := range o.Problems {
		fmt.Fprintf(w, "   GATE: %s\n", p)
	}
	for _, t := range [][]metricDef{endToEnd, workloadOnly, perLayer} {
		for _, d := range t {
			v, ok := o.Metrics[d.Name]
			if !ok {
				continue
			}
			note := ""
			if s, ok := o.Samples[d.Name]; ok {
				note = fmt.Sprintf("  (n=%d", s.N)
				if s.Q < s.Asked {
					note += fmt.Sprintf(", p%.4g supported", s.Q*100)
				}
				note += ")"
			}
			fmt.Fprintf(w, "   %-36s %14.4f %-5s%s\n", d.Name, v, d.Unit, note)
		}
	}
}

// printSpread summarizes repeated runs: median and quartiles of every
// end-to-end outcome, with the interquartile spread as a share of the
// median (the figure a regression bound must exceed; the -out report
// holds every per-layer value too).
func printSpread(w io.Writer, all [][]*runOutcome) {
	fmt.Fprintf(w, "== spread over %d runs (quartiles as Python's statistics.quantiles(n=4))\n", len(all))
	for i := range all[0] {
		wl := all[0][i].Workload
		for _, t := range [][]metricDef{endToEnd, workloadOnly} {
			for _, d := range t {
				var xs []float64
				for _, set := range all {
					if v, ok := set[i].Metrics[d.Name]; ok {
						xs = append(xs, v)
					}
				}
				if len(xs) == 0 {
					continue
				}
				q1, med, q3 := quartiles(xs)
				fmt.Fprintf(w, "   %-8s %-36s median %14.4f  q1 %14.4f  q3 %14.4f  spread %6.3f\n",
					wl, d.Name, med, q1, q3, ratio(q3-q1, med))
			}
		}
	}
}

// report is the -out document.
type report struct {
	Header *header           `json:"header"`
	Runs   [][]*runOutcome   `json:"runs"`
	Units  map[string]string `json:"units"`
}

func writeReport(path string, h *header, all [][]*runOutcome) error {
	units := map[string]string{}
	for _, set := range all {
		for _, o := range set {
			for k := range o.Metrics {
				units[k] = unitOf(k)
			}
		}
	}
	b, err := json.MarshalIndent(report{Header: h, Runs: all, Units: units}, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the final JSON line. A single workload reports the
// end-to-end table (trace off) or the per-layer table (trace on); a
// multi-workload run reports both, prefixed by workload.
func resultLine(set []*runOutcome, trace, prefixed bool) string {
	type line struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	l := line{Correct: true, Metrics: map[string]metricValue{}}
	for _, o := range set {
		l.Correct = l.Correct && o.Correct
		l.Attempted += o.Attempted
		l.Failed += o.Failed
		tables := [][]metricDef{endToEnd}
		if trace {
			tables = [][]metricDef{perLayer}
		}
		if prefixed {
			tables = [][]metricDef{endToEnd, perLayer}
		}
		for _, t := range tables {
			for _, d := range t {
				key := d.Name
				if prefixed {
					key = o.Workload + "." + d.Name
				}
				l.Metrics[key] = metricValue{Value: o.Metrics[d.Name], Unit: d.Unit}
			}
		}
	}
	b, _ := json.Marshal(l)
	return string(b)
}
