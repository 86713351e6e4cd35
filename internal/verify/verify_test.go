// Attack-matrix tests for the Verifier (paper §IV-F): every manipulation
// an adversary with full Non-Secure control could attempt must surface as
// a rejected verdict, while genuine evidence — including ambiguous
// recursive evidence — is accepted with a complete witness path.
package verify_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"raptrack/internal/asm"
	"raptrack/internal/attest"
	"raptrack/internal/cfa"
	"raptrack/internal/cpu"
	"raptrack/internal/isa"
	"raptrack/internal/linker"
	"raptrack/internal/mem"
	"raptrack/internal/trace"
	"raptrack/internal/verify"
)

// attested links prog, runs it under the CFA engine, and returns the
// artifact plus the genuine packet stream.
func attested(t *testing.T, prog *asm.Program) (*linker.Output, []trace.Packet) {
	t.Helper()
	out, _, _, reports := attestedSession(t, prog)
	return out, chainPackets(t, reports)
}

func newVerifier(out *linker.Output) *verify.Verifier {
	key, _ := attest.GenerateHMACKey()
	return verify.New(out, key)
}

// richProgram exercises every evidence kind: indirect call, monitored and
// leaf returns, conditionals both ways, a logged loop and a static loop.
func richProgram() *asm.Program {
	p := asm.NewProgram("rich")
	main := p.NewFunc("main")
	main.PUSH(isa.LR)
	main.MOVi(isa.R0, 3)
	main.BL("square") // leaf
	main.CMPi(isa.R0, 5)
	main.BLT("small") // 9 < 5: not taken
	main.LA(isa.R2, "helper")
	main.BLX(isa.R2) // indirect call
	main.Label("small")
	main.CMPi(isa.R0, 0)
	main.BNE("go_on") // taken: produces conditional evidence
	main.MOVi(isa.R1, 7)
	main.Label("go_on")
	// Logged loop (runtime bound).
	main.MOVi(isa.R4, 6)
	main.MUL(isa.R4, isa.R4, isa.R0)
	main.Label("vloop")
	main.SUBi(isa.R4, isa.R4, 1)
	main.CMPi(isa.R4, 0)
	main.BNE("vloop")
	// Static loop.
	main.MOVi(isa.R5, 0)
	main.Label("sloop")
	main.ADDi(isa.R5, isa.R5, 1)
	main.CMPi(isa.R5, 4)
	main.BLT("sloop")
	main.POP(isa.PC) // monitored return

	sq := p.AddFunc(asm.NewFunction("square"))
	sq.MUL(isa.R0, isa.R0, isa.R0)
	sq.RET()

	h := p.AddFunc(asm.NewFunction("helper"))
	h.PUSH(isa.R4, isa.LR)
	h.ADDi(isa.R0, isa.R0, 1)
	h.POP(isa.R4, isa.PC) // monitored return
	return p
}

func TestGenuineEvidenceAccepted(t *testing.T) {
	out, pkts := attested(t, richProgram())
	v := newVerifier(out)
	vd := v.ReplayPackets(pkts)
	if !vd.OK {
		t.Fatalf("rejected: %s (pc=%#x)", vd.Reason(), vd.FailPC)
	}
	if vd.PacketsUsed != len(pkts) {
		t.Errorf("consumed %d of %d packets", vd.PacketsUsed, len(pkts))
	}
	if vd.Transfers == 0 || len(vd.Path) == 0 {
		t.Error("no path reconstructed")
	}
	if vd.LoopsReplayed < 2 { // one logged + one static
		t.Errorf("loops replayed = %d", vd.LoopsReplayed)
	}
}

// findPacket returns the index of the first packet matching pred.
func findPacket(t *testing.T, pkts []trace.Packet, pred func(trace.Packet) bool) int {
	t.Helper()
	for i, p := range pkts {
		if pred(p) {
			return i
		}
	}
	t.Fatal("packet not found")
	return -1
}

func mustReject(t *testing.T, out *linker.Output, pkts []trace.Packet, wantSub string) {
	t.Helper()
	vd := newVerifier(out).ReplayPackets(pkts)
	if vd.OK {
		t.Fatalf("tampered evidence accepted (%d packets)", len(pkts))
	}
	if wantSub != "" && !strings.Contains(vd.Reason(), wantSub) {
		t.Errorf("reason %q does not mention %q", vd.Reason(), wantSub)
	}
}

func stubOfClass(out *linker.Output, class string) *linker.Stub {
	for _, s := range out.Stubs {
		if s.Class.String() == class {
			return s
		}
	}
	return nil
}

func TestROPDetected(t *testing.T) {
	out, pkts := attested(t, richProgram())
	ret := stubOfClass(out, "return")
	if ret == nil {
		t.Fatal("no return stub")
	}
	i := findPacket(t, pkts, func(p trace.Packet) bool {
		return out.Stubs[p.Src] != nil && out.Stubs[p.Src].Class.String() == "return" && p.Dst != 0xffff_fffe
	})
	mutated := append([]trace.Packet(nil), pkts...)
	mutated[i].Dst = out.Image.Symbols["main"] + 8 // plausible code, wrong frame
	mustReject(t, out, mutated, "")
}

func TestJOPDetected(t *testing.T) {
	out, pkts := attested(t, richProgram())
	i := findPacket(t, pkts, func(p trace.Packet) bool {
		s := out.Stubs[p.Src]
		return s != nil && s.Class.String() == "icall"
	})
	mutated := append([]trace.Packet(nil), pkts...)
	// Redirect the call into the middle of a function (a gadget).
	mutated[i].Dst = out.Image.Symbols["helper"] + 2
	mustReject(t, out, mutated, "")
}

func TestDroppedEvidenceRejected(t *testing.T) {
	out, pkts := attested(t, richProgram())
	if len(pkts) < 2 {
		t.Fatal("too little evidence")
	}
	mustReject(t, out, pkts[:len(pkts)-1], "")
	mustReject(t, out, pkts[1:], "")
}

func TestInjectedEvidenceRejected(t *testing.T) {
	out, pkts := attested(t, richProgram())
	dup := append(append([]trace.Packet(nil), pkts...), pkts[len(pkts)-1])
	mustReject(t, out, dup, "")
}

func TestEmptyEvidenceRejected(t *testing.T) {
	out, _ := attested(t, richProgram())
	mustReject(t, out, nil, "")
}

func TestCondEvidenceTargetChecked(t *testing.T) {
	out, pkts := attested(t, richProgram())
	i := findPacket(t, pkts, func(p trace.Packet) bool {
		s := out.Stubs[p.Src]
		if s == nil {
			return false
		}
		c := s.Class.String()
		return c == "cond" || c == "loop-back" || c == "loop-fwd"
	})
	mutated := append([]trace.Packet(nil), pkts...)
	mutated[i].Dst ^= 0x40 // destination no longer the static target
	mustReject(t, out, mutated, "")
}

// TestLoopConditionReflectedInPath checks the §IV-D optimization's
// evidence semantics: the logged entry value drives the reconstructed
// iteration count. A different value is still *self-consistent* evidence
// (the iterations themselves are silent; stream integrity is the MAC's
// job) — but the witness path must faithfully reflect it.
func TestLoopConditionReflectedInPath(t *testing.T) {
	out, pkts := attested(t, richProgram())
	var secall uint32
	for a := range out.Loops {
		secall = a
	}
	if secall == 0 {
		t.Fatal("no logged loop")
	}
	v := newVerifier(out)
	base := v.ReplayPackets(pkts)
	if !base.OK {
		t.Fatal(base.Reason())
	}

	i := findPacket(t, pkts, func(p trace.Packet) bool { return p.Src == secall })
	mutated := append([]trace.Packet(nil), pkts...)
	mutated[i].Dst += 5 // five more iterations at loop entry
	vd := v.ReplayPackets(mutated)
	if !vd.OK {
		t.Fatalf("self-consistent evidence rejected: %s", vd.Reason())
	}
	if vd.Transfers != base.Transfers+5 {
		t.Errorf("transfers %d, want %d (+5 loop back-edges)", vd.Transfers, base.Transfers+5)
	}
}

func TestUnknownSourceRejected(t *testing.T) {
	out, pkts := attested(t, richProgram())
	mutated := append([]trace.Packet(nil), pkts...)
	mutated[0].Src = 0x1234_5678
	mustReject(t, out, mutated, "")
}

// TestRecursionAmbiguityResolved feeds the verifier the classic
// self-similar evidence (recursive fib) where greedy matching fails; the
// summarization search must find the unique consistent parse.
func TestRecursionAmbiguityResolved(t *testing.T) {
	p := asm.NewProgram("fib")
	main := p.NewFunc("main")
	main.PUSH(isa.LR)
	main.MOVi(isa.R0, 8)
	main.BL("fib")
	main.POP(isa.PC)
	f := p.AddFunc(asm.NewFunction("fib"))
	f.CMPi(isa.R0, 2)
	f.BLT("base")
	f.PUSH(isa.R4, isa.LR)
	f.MOVr(isa.R4, isa.R0)
	f.SUBi(isa.R0, isa.R4, 1)
	f.BL("fib")
	f.MOVr(isa.R1, isa.R0)
	f.SUBi(isa.R0, isa.R4, 2)
	f.MOVr(isa.R4, isa.R1)
	f.BL("fib")
	f.ADDr(isa.R0, isa.R4, isa.R0)
	f.POP(isa.R4, isa.PC)
	f.Label("base")
	f.RET()

	out, pkts := attested(t, p)
	vd := newVerifier(out).ReplayPackets(pkts)
	if !vd.OK {
		t.Fatalf("rejected: %s", vd.Reason())
	}
	if vd.Passes < 2 {
		t.Errorf("expected fixed-point iteration for recursive evidence, passes=%d", vd.Passes)
	}
	// And a truncated version must still be rejected.
	mustReject(t, out, pkts[:len(pkts)-3], "")
}

func TestPathCapRespected(t *testing.T) {
	out, pkts := attested(t, richProgram())
	key, _ := attest.GenerateHMACKey()
	v := verify.New(out, key, verify.WithPathCap(3))
	vd := v.ReplayPackets(pkts)
	if !vd.OK {
		t.Fatal(vd.Reason())
	}
	if len(vd.Path) > 3 {
		t.Errorf("path length %d exceeds cap", len(vd.Path))
	}
	if vd.Transfers <= 3 {
		t.Errorf("transfer count should exceed the cap, got %d", vd.Transfers)
	}
	vOff := verify.New(out, key, verify.WithPathCap(-1))
	if vd := vOff.ReplayPackets(pkts); len(vd.Path) != 0 {
		t.Error("PathCap -1 should disable recording")
	}
}

func TestWorkBudgetEnforced(t *testing.T) {
	out, pkts := attested(t, richProgram())
	key, _ := attest.GenerateHMACKey()
	v := verify.New(out, key, verify.WithMaxInstrs(10))
	vd := v.ReplayPackets(pkts)
	if vd.OK {
		t.Fatal("accepted under a 10-instruction budget")
	}
	if !strings.Contains(vd.Reason(), "budget") && !strings.Contains(vd.Reason(), "instruction") {
		t.Errorf("reason = %q", vd.Reason())
	}
}

func TestHMemMismatchRejected(t *testing.T) {
	prog := richProgram()
	out, err := linker.Link(prog, linker.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	key, _ := attest.GenerateHMACKey()
	m := mem.New()
	eng, err := cfa.New(cfa.Config{Link: out, Mem: m, Signer: key})
	if err != nil {
		t.Fatal(err)
	}
	chal, _ := attest.NewChallenge(prog.Name)
	if err := eng.Begin(chal); err != nil {
		t.Fatal(err)
	}
	c, _ := cpu.New(eng.CPUConfig())
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	reports, _ := eng.Finish()

	// The verifier's golden image differs (different program => different
	// H_MEM).
	other := richProgram()
	other.Funcs[0].Instrs[1].Imm = 99
	goldenOut, err := linker.Link(other, linker.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	v := verify.New(goldenOut, key)
	vd, err := v.Verify(chal, reports)
	if err != nil {
		t.Fatal(err)
	}
	if vd.OK || !strings.Contains(vd.Reason(), "H_MEM") {
		t.Errorf("verdict = %+v", vd)
	}
}

// TestVerifierConcurrentUse shares one Verifier across many goroutines
// (the gateway deployment shape: one Verifier per app, all sessions).
// Every reconstruction — accepts and rejects alike — must render the
// verdict a lone run renders, field for field; run under -race to catch
// hidden shared state in the search (memo maps, the outcome arena's
// chunk free list, ...).
func TestVerifierConcurrentUse(t *testing.T) {
	out, packets := attested(t, richProgram())
	v := newVerifier(out)
	streams := [][]trace.Packet{packets, packets[:len(packets)/2]}
	want := make([]*verify.Verdict, len(streams))
	for i, pk := range streams {
		want[i] = v.ReplayPackets(pk)
	}
	if !want[0].OK || want[1].OK {
		t.Fatalf("baseline verdicts: %q, %q", want[0].Reason(), want[1].Reason())
	}

	const goroutines, rounds = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (g + i) % len(streams)
				if vd := v.ReplayPackets(streams[k]); !reflect.DeepEqual(vd, want[k]) {
					errs <- fmt.Errorf("concurrent verdict diverged on stream %d: %+v, want %+v", k, vd, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
