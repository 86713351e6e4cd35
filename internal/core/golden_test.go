package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"raptrack/internal/apps"
	"raptrack/internal/attest"
	"raptrack/internal/trace"
	"raptrack/internal/verify"
)

// The golden verdict corpus pins every field of the interpreter's
// verdicts — search effort (Instrs, Passes) included — across versions.
// The differential suites cannot see an interpreter change: both engines
// render every non-accept through the same interpreter. Regenerate with
//
//	go test ./internal/core -run TestVerdictsGolden -update
//
// only when a verdict change is intended, and say why in CHANGES.md.

var updateGolden = flag.Bool("update", false, "rewrite testdata/verdicts.golden")

const goldenFile = "testdata/verdicts.golden"

// goldenHijacks is the number of gadget hijacks per program.
const goldenHijacks = 8

// goldenProgram is one corpus program: a name, an interpreter-only
// verifier for it and its benign evidence stream.
type goldenProgram struct {
	name string
	v    *verify.Verifier
	pk   []trace.Packet
}

// goldenPrograms attests every evaluation app and the generated programs
// TestEngineConformanceCorrupted uses. Under -short only a subset runs;
// each program's cases always run in the same order, so a subset's lines
// match the full corpus exactly.
func goldenPrograms(t *testing.T) []goldenProgram {
	t.Helper()
	key, err := attest.GenerateHMACKey()
	if err != nil {
		t.Fatal(err)
	}
	short := testing.Short() && !*updateGolden
	var out []goldenProgram
	for _, a := range apps.All() {
		if short && a.Name != "fibcall" && a.Name != "gps" && a.Name != "prime" {
			continue
		}
		link, err := LinkForCFA(a.Build(), DefaultLinkOptions())
		if err != nil {
			t.Fatalf("%s: link: %v", a.Name, err)
		}
		prover, err := NewProver(link, key, ProverConfig{SetupMem: a.SetupMem(), MaxSteps: a.MaxSteps})
		if err != nil {
			t.Fatal(err)
		}
		chal := mustChal(t, a.Name)
		reports, _, err := prover.Attest(chal)
		if err != nil {
			t.Fatalf("%s: attest: %v", a.Name, err)
		}
		log, _, err := attest.AssembleChain(reports, chal, key)
		if err != nil {
			t.Fatal(err)
		}
		v := NewVerifier(link, key, verify.WithAutomaton(false))
		out = append(out, goldenProgram{name: a.Name, v: v, pk: decodeMTB(t, log)})
	}
	seeds := []int64{3, 7, 11, 19}
	if short {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		ref, _, pk := attestedPackets(t, seed)
		out = append(out, goldenProgram{name: fmt.Sprintf("gen%02d", seed), v: ref, pk: pk})
	}
	return out
}

// goldenCase is one evidence stream of a program's corpus.
type goldenCase struct {
	name string
	pk   []trace.Packet
}

// goldenCases lists a program's streams in a fixed order: the benign
// stream, the corruption classes by name, then gadget hijacks. Hijack i
// overwrites the packet at the i-th golden-ratio position with a
// transfer between two uninstrumented addresses, the footprint a
// compromised device leaves (the gateway benchmark's hijack model).
func goldenCases(pk []trace.Packet) []goldenCase {
	cases := []goldenCase{{"benign", pk}}
	mut := corruptions(pk)
	names := make([]string, 0, len(mut))
	for n := range mut {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		cases = append(cases, goldenCase{n, mut[n]})
	}
	phi := (math.Sqrt(5) - 1) / 2
	for i := 1; i <= goldenHijacks && len(pk) > 0; i++ {
		_, frac := math.Modf(float64(i) * phi)
		k := int(frac * float64(len(pk)))
		gadget := 0x8000_0000 | uint32(i)<<4
		m := append([]trace.Packet(nil), pk...)
		m[k] = trace.Packet{Src: gadget, Dst: gadget + 4}
		cases = append(cases, goldenCase{fmt.Sprintf("hijack%d@%d", i, k), m})
	}
	return cases
}

// goldenLine renders every verdict field the corpus pins; the witness
// path is summarized by the SHA-256 of its edges.
func goldenLine(id string, vd *verify.Verdict) string {
	h := sha256.New()
	var b [9]byte
	for _, e := range vd.Path {
		binary.LittleEndian.PutUint32(b[0:], e.Src)
		binary.LittleEndian.PutUint32(b[4:], e.Dst)
		b[8] = byte(e.Kind)
		h.Write(b[:])
	}
	return fmt.Sprintf("%s ok=%v code=%v failpc=%#x packets=%d used=%d transfers=%d loops=%d instrs=%d passes=%d path=%x detail=%q",
		id, vd.OK, vd.Code, vd.FailPC, vd.Packets, vd.PacketsUsed, vd.Transfers, vd.LoopsReplayed,
		vd.Instrs, vd.Passes, h.Sum(nil)[:12], vd.Detail)
}

// TestVerdictsGolden replays the corpus through the interpreter
// (ReplayPackets), with the segment cache off and then on (one fresh
// cache per program, warmed by the program's earlier cases), and
// compares every verdict with the checked-in corpus.
func TestVerdictsGolden(t *testing.T) {
	var got []string
	for _, p := range goldenPrograms(t) {
		cases := goldenCases(p.pk)
		for _, cached := range []bool{false, true} {
			v, mode := p.v, "off"
			if cached {
				v, mode = p.v.With(verify.WithCache(verify.NewCache(0))), "on"
			}
			for _, c := range cases {
				id := fmt.Sprintf("%s/%s/cache=%s", p.name, c.name, mode)
				got = append(got, goldenLine(id, v.ReplayPackets(c.pk)))
			}
		}
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d verdicts to %s", len(got), goldenFile)
		return
	}

	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("missing corpus (run with -update to create): %v", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		id, _, _ := strings.Cut(line, " ")
		want[id] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !testing.Short() && len(got) != len(want) {
		t.Errorf("corpus has %d verdicts, this run rendered %d", len(want), len(got))
	}
	bad := 0
	for _, g := range got {
		id, _, _ := strings.Cut(g, " ")
		if w, ok := want[id]; !ok {
			t.Errorf("no golden verdict for %s", id)
		} else if w != g {
			if bad++; bad <= 10 {
				t.Errorf("verdict drifted:\n  want %s\n  got  %s", w, g)
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d drifted verdicts in all", bad)
	}
}
