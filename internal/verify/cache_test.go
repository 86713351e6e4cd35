// Fast-path tests: a cache-backed Verifier must produce verdicts
// indistinguishable from an uncached one — on genuine and tampered
// evidence alike — while actually sharing work across sessions.
package verify_test

import (
	"fmt"
	"sync"
	"testing"

	"raptrack/internal/asm"
	"raptrack/internal/attest"
	"raptrack/internal/cfa"
	"raptrack/internal/cpu"
	"raptrack/internal/linker"
	"raptrack/internal/mem"
	"raptrack/internal/trace"
	"raptrack/internal/verify"
)

// attestedSession is like attested but keeps everything a Verify call
// needs: the challenge, the signed report chain, and the signing key.
func attestedSession(t *testing.T, prog *asm.Program) (*linker.Output, attest.Authenticator, attest.Challenge, []*attest.Report) {
	t.Helper()
	out, err := linker.Link(prog, linker.DefaultOptions())
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	key, err := attest.GenerateHMACKey()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cfa.New(cfa.Config{Link: out, Mem: mem.New(), Signer: key})
	if err != nil {
		t.Fatal(err)
	}
	chal, err := attest.NewChallenge(prog.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Begin(chal); err != nil {
		t.Fatal(err)
	}
	c, err := cpu.New(eng.CPUConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(0); err != nil {
		t.Fatalf("run: %v", err)
	}
	reports, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return out, key, chal, reports
}

// tamperCorpus derives a family of genuine and manipulated streams that
// exercise accept, missing-evidence, malformed and attack verdicts.
func tamperCorpus(pkts []trace.Packet) [][]trace.Packet {
	cp := func(ps []trace.Packet) []trace.Packet { return append([]trace.Packet(nil), ps...) }
	corpus := [][]trace.Packet{
		cp(pkts),                            // genuine
		pkts[:len(pkts)-1],                  // dropped tail
		pkts[1:],                            // dropped head
		append(cp(pkts), pkts[len(pkts)-1]), // injected duplicate
		nil,                                 // empty
	}
	m := cp(pkts)
	m[0].Src = 0x1234_5678 // unknown source
	corpus = append(corpus, m)
	m = cp(pkts)
	m[len(m)/2].Dst ^= 0x40 // corrupted destination mid-stream
	corpus = append(corpus, m)
	return corpus
}

func sameVerdict(t *testing.T, i int, want, got *verify.Verdict) {
	t.Helper()
	if want.OK != got.OK || want.Code != got.Code {
		t.Fatalf("stream %d: verdict diverged: want (ok=%v code=%v), got (ok=%v code=%v)",
			i, want.OK, want.Code, got.OK, got.Code)
	}
	if want.Transfers != got.Transfers || want.PacketsUsed != got.PacketsUsed ||
		want.LoopsReplayed != got.LoopsReplayed {
		t.Fatalf("stream %d: stats diverged: want %+v, got %+v", i, want, got)
	}
	if len(want.Path) != len(got.Path) {
		t.Fatalf("stream %d: path length %d != %d", i, len(got.Path), len(want.Path))
	}
	for j := range want.Path {
		if want.Path[j] != got.Path[j] {
			t.Fatalf("stream %d: path[%d] = %+v, want %+v", i, j, got.Path[j], want.Path[j])
		}
	}
}

// TestCacheEquivalence replays a corpus through an uncached Verifier and
// a cache-backed one (twice, so the second pass runs on hits): verdicts,
// reason codes, witness paths and evidence statistics must agree exactly.
func TestCacheEquivalence(t *testing.T) {
	out, pkts := attested(t, richProgram())
	plain := newVerifier(out)
	cache := verify.NewCache(1 << 20)
	cached := plain.With(verify.WithCache(cache))

	corpus := tamperCorpus(pkts)
	for round := 0; round < 2; round++ {
		for i, stream := range corpus {
			want := plain.ReplayPackets(stream)
			got := cached.ReplayPackets(stream)
			sameVerdict(t, i, want, got)
		}
	}
	st := cache.Stats()
	if st.Hits == 0 {
		t.Error("second pass produced no cache hits")
	}
	if st.Entries == 0 || st.Bytes == 0 {
		t.Errorf("cache reports no occupancy: %+v", st)
	}
}

// TestVerdictCacheHit exercises the whole-stream verdict memo through the
// authenticated Verify path: the second session with identical evidence
// must return the same verdict and register a hit.
func TestVerdictCacheHit(t *testing.T) {
	out, key, chal, reports := attestedSession(t, richProgram())
	cache := verify.NewCache(1 << 20)
	v := verify.New(out, key, verify.WithCache(cache))

	first, err := v.Verify(chal, reports)
	if err != nil {
		t.Fatal(err)
	}
	if !first.OK {
		t.Fatalf("rejected: %s", first.Reason())
	}
	if len(first.Evidence) == 0 {
		t.Fatal("accepted verdict carries no evidence stream")
	}
	before := cache.Stats().Hits
	second, err := v.Verify(chal, reports)
	if err != nil {
		t.Fatal(err)
	}
	sameVerdict(t, 0, first, second)
	if len(second.Evidence) != len(first.Evidence) {
		t.Error("cache hit lost the evidence stream")
	}
	if cache.Stats().Hits <= before {
		t.Error("repeated Verify did not hit the verdict cache")
	}
}

// TestCacheEviction forces a tiny budget against a stream family with
// many distinct loop states (each a distinct cache key): the cache must
// evict rather than grow, and correctness must not depend on residency.
func TestCacheEviction(t *testing.T) {
	out, pkts := attested(t, richProgram())
	plain := newVerifier(out)
	cache := verify.NewCache(8 << 10) // 512 bytes per shard
	cached := plain.With(verify.WithCache(cache))

	var secall uint32
	for a := range out.Loops {
		secall = a
	}
	if secall == 0 {
		t.Fatal("no logged loop")
	}
	li := findPacket(t, pkts, func(p trace.Packet) bool { return p.Src == secall })
	for k := uint32(0); k < 64; k++ {
		stream := append([]trace.Packet(nil), pkts...)
		stream[li].Dst += k // k extra iterations: a fresh loop state
		sameVerdict(t, int(k), plain.ReplayPackets(stream), cached.ReplayPackets(stream))
	}
	st := cache.Stats()
	if st.Evictions == 0 {
		t.Errorf("tiny cache never evicted: %+v", st)
	}
	if st.Bytes > 8<<10 {
		t.Errorf("cache exceeded its byte budget: %+v", st)
	}
}

// TestCacheConcurrent hammers one shared cache from many goroutines with
// mixed genuine/tampered streams (run under -race): every verdict must
// match the uncached baseline.
func TestCacheConcurrent(t *testing.T) {
	out, pkts := attested(t, richProgram())
	plain := newVerifier(out)
	cache := verify.NewCache(1 << 20)
	cached := plain.With(verify.WithCache(cache))

	corpus := tamperCorpus(pkts)
	baseline := make([]*verify.Verdict, len(corpus))
	for i, stream := range corpus {
		baseline[i] = plain.ReplayPackets(stream)
	}

	const goroutines, rounds = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(corpus)
				vd := cached.ReplayPackets(corpus[i])
				want := baseline[i]
				if vd.OK != want.OK || vd.Code != want.Code || vd.Transfers != want.Transfers {
					errs <- fmt.Errorf("stream %d: concurrent verdict diverged: ok=%v code=%v transfers=%d",
						i, vd.OK, vd.Code, vd.Transfers)
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

// TestWithDerivation checks that With produces an independent Verifier:
// the parent keeps its configuration, and the derived one actually uses
// the override.
func TestWithDerivation(t *testing.T) {
	out, pkts := attested(t, richProgram())
	v := newVerifier(out)
	if v.Cache() != nil {
		t.Fatal("fresh verifier unexpectedly has a cache")
	}
	c := verify.NewCache(0)
	vc := v.With(verify.WithCache(c))
	if vc.Cache() != c {
		t.Fatal("derived verifier did not adopt the cache")
	}
	if v.Cache() != nil {
		t.Fatal("With mutated its receiver")
	}
	tiny := v.With(verify.WithMaxInstrs(10))
	if vd := tiny.ReplayPackets(pkts); vd.OK || vd.Code != verify.ReasonWorkBudget {
		t.Fatalf("derived budget not applied: %+v", vd)
	}
	if vd := v.ReplayPackets(pkts); !vd.OK {
		t.Fatalf("parent affected by derivation: %s", vd.Reason())
	}
}

// TestReasonCodeClassification pins the code assigned to each canonical
// rejection class.
func TestReasonCodeClassification(t *testing.T) {
	out, pkts := attested(t, richProgram())
	v := newVerifier(out)

	cp := func(ps []trace.Packet) []trace.Packet { return append([]trace.Packet(nil), ps...) }

	rop := cp(pkts)
	i := findPacket(t, rop, func(p trace.Packet) bool {
		s := out.Stubs[p.Src]
		return s != nil && s.Class.String() == "return" && p.Dst != 0xffff_fffe
	})
	rop[i].Dst = out.Image.Symbols["main"] + 8
	if vd := v.ReplayPackets(rop); vd.OK || vd.Code != verify.ReasonROP {
		t.Errorf("ROP stream: code=%v detail=%q", vd.Code, vd.Detail)
	}

	jop := cp(pkts)
	i = findPacket(t, jop, func(p trace.Packet) bool {
		s := out.Stubs[p.Src]
		return s != nil && s.Class.String() == "icall"
	})
	jop[i].Dst = out.Image.Symbols["helper"] + 2
	if vd := v.ReplayPackets(jop); vd.OK || vd.Code != verify.ReasonJOP {
		t.Errorf("JOP stream: code=%v detail=%q", vd.Code, vd.Detail)
	}

	if vd := v.ReplayPackets(pkts[:len(pkts)-1]); vd.OK || vd.Code == verify.ReasonNone {
		t.Errorf("truncated stream: code=%v", vd.Code)
	}

	if got := verify.ReasonROP.String(); got != "rop" {
		t.Errorf("ReasonROP.String() = %q", got)
	}
	if verify.ReasonCode(200).Valid() {
		t.Error("out-of-range code reported valid")
	}
	if !verify.ReasonNone.Valid() {
		t.Error("ReasonNone reported invalid")
	}
}
