// Fast-path tests: a Verifier with the verdict cache attached must render
// exactly the verdicts an uncached one renders — on genuine and tampered
// evidence alike, on the miss and on the hit — while actually serving
// repeated chains from the cache.
package verify_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"raptrack/internal/asm"
	"raptrack/internal/attest"
	"raptrack/internal/cfa"
	"raptrack/internal/cpu"
	"raptrack/internal/linker"
	"raptrack/internal/mem"
	"raptrack/internal/trace"
	"raptrack/internal/trace/pipeline"
	"raptrack/internal/verify"
)

// attestedSession is like attested but keeps everything a Verify call
// needs: the challenge, the signed report chain, and the signing key.
func attestedSession(t *testing.T, prog *asm.Program) (*linker.Output, *attest.HMACKey, attest.Challenge, []*attest.Report) {
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

// signedChain packs pkts into a one-report chain signed with key, under
// the app, nonce and H_MEM of the genuine chain's first report, so a
// tampered stream reaches the verifier as authentic evidence.
func signedChain(t *testing.T, key *attest.HMACKey, genuine []*attest.Report, pkts []trace.Packet) []*attest.Report {
	t.Helper()
	r := *genuine[0]
	r.Seq, r.Final = 0, true
	r.CFLog = pipeline.EncodeMTB(pkts)
	if err := attest.SignReport(&r, key); err != nil {
		t.Fatal(err)
	}
	return []*attest.Report{&r}
}

// chainPackets decodes a genuine chain's evidence stream.
func chainPackets(t *testing.T, reports []*attest.Report) []trace.Packet {
	t.Helper()
	var log []byte
	for _, r := range reports {
		log = append(log, r.CFLog...)
	}
	pkts, derr := pipeline.New(pipeline.Raw(pipeline.FormatMTB, log)).Packets()
	if derr != nil {
		t.Fatal(derr)
	}
	return pkts
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

// verdictDiff reports how got differs from want in any field but Timing
// and Evidence, which describe the call rather than the verdict.
func verdictDiff(want, got *verify.Verdict) error {
	w, g := *want, *got
	w.Timing, g.Timing = verify.PhaseTiming{}, verify.PhaseTiming{}
	w.Evidence, g.Evidence = nil, nil
	if !reflect.DeepEqual(w, g) {
		return fmt.Errorf("verdict diverged:\n  got  %+v\n  want %+v", g, w)
	}
	return nil
}

// verifyChain runs v.Verify and fails the test on an error.
func verifyChain(t *testing.T, v *verify.Verifier, chal attest.Challenge, chain []*attest.Report) *verify.Verdict {
	t.Helper()
	vd, err := v.Verify(chal, chain)
	if err != nil {
		t.Fatal(err)
	}
	return vd
}

// engines are the two verifier configurations the cache sits in front of.
var engines = []struct {
	name string
	opt  verify.Option
}{
	{"interpreter", verify.WithAutomaton(false)},
	{"automaton", verify.WithAutomaton(true)},
}

// TestCacheEquivalence verifies a corpus of signed chains with an
// uncached Verifier and with a cache-backed one, twice, so the second
// pass runs on hits: both passes must render the uncached verdict in
// every field but Timing and Evidence, Instrs and Passes included.
func TestCacheEquivalence(t *testing.T) {
	out, key, chal, reports := attestedSession(t, richProgram())
	corpus := tamperCorpus(chainPackets(t, reports))
	chains := make([][]*attest.Report, len(corpus))
	for i, stream := range corpus {
		chains[i] = signedChain(t, key, reports, stream)
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			plain := verify.New(out, key, eng.opt)
			cache := verify.NewCache(1 << 20)
			cached := plain.With(verify.WithCache(cache))
			accepts := 0
			for round, hit := range []bool{false, true} {
				for i, chain := range chains {
					want := verifyChain(t, plain, chal, chain)
					got := verifyChain(t, cached, chal, chain)
					if err := verdictDiff(want, got); err != nil {
						t.Fatalf("round %d, stream %d: %v", round, i, err)
					}
					if got.Timing.CacheHit != hit {
						t.Errorf("round %d, stream %d: CacheHit = %v", round, i, got.Timing.CacheHit)
					}
					if len(got.Evidence) != len(corpus[i]) {
						t.Errorf("round %d, stream %d: evidence has %d packets, want %d", round, i, len(got.Evidence), len(corpus[i]))
					}
					if round == 0 && want.OK {
						accepts++
					}
				}
			}
			if accepts == 0 || accepts == len(corpus) {
				t.Errorf("corpus drew %d accepts of %d streams; want both verdicts", accepts, len(corpus))
			}
			n := uint64(len(corpus))
			if st := cache.Stats(); st.Hits != n || st.Misses != n || st.Entries != len(corpus) || st.Bytes == 0 {
				t.Errorf("cache stats %+v, want %d hits, %d misses and %d entries", st, n, n, n)
			}
		})
	}
}

// TestVerdictCacheHit exercises the verdict cache on the genuine report
// chain as the prover signed it: the second session with identical
// evidence must return the same verdict, with its evidence stream, and
// register a hit.
func TestVerdictCacheHit(t *testing.T) {
	out, key, chal, reports := attestedSession(t, richProgram())
	cache := verify.NewCache(1 << 20)
	v := verify.New(out, key, verify.WithCache(cache))

	first := verifyChain(t, v, chal, reports)
	if !first.OK {
		t.Fatalf("rejected: %s", first.Reason())
	}
	if len(first.Evidence) == 0 {
		t.Fatal("accepted verdict carries no evidence stream")
	}
	before := cache.Stats().Hits
	second := verifyChain(t, v, chal, reports)
	if err := verdictDiff(first, second); err != nil {
		t.Fatal(err)
	}
	if len(second.Evidence) != len(first.Evidence) {
		t.Error("cache hit lost the evidence stream")
	}
	if cache.Stats().Hits <= before || !second.Timing.CacheHit {
		t.Error("repeated Verify did not hit the verdict cache")
	}
}

// TestCacheEviction verifies a family of signed chains with many
// distinct loop states (each a distinct key) under a budget that admits
// a verdict or two per shard: the cache must evict rather than grow, and
// verdicts must not depend on residency. The second pass runs in reverse,
// so each shard's resident verdicts hit before the pass evicts them.
func TestCacheEviction(t *testing.T) {
	out, key, chal, reports := attestedSession(t, richProgram())
	pkts := chainPackets(t, reports)
	plain := verify.New(out, key)
	const budget = 32 << 10 // 2 KiB per shard
	cache := verify.NewCache(budget)
	cached := plain.With(verify.WithCache(cache))

	var secall uint32
	for a := range out.Loops {
		secall = a
	}
	if secall == 0 {
		t.Fatal("no logged loop")
	}
	li := findPacket(t, pkts, func(p trace.Packet) bool { return p.Src == secall })
	const family = 64
	chains := make([][]*attest.Report, family)
	want := make([]*verify.Verdict, family)
	for k := range chains {
		stream := append([]trace.Packet(nil), pkts...)
		stream[li].Dst += uint32(k) // k extra iterations: a fresh loop state
		chains[k] = signedChain(t, key, reports, stream)
		want[k] = verifyChain(t, plain, chal, chains[k])
	}
	for pass := 0; pass < 2; pass++ {
		for j := range chains {
			k := j
			if pass == 1 {
				k = family - 1 - j
			}
			if err := verdictDiff(want[k], verifyChain(t, cached, chal, chains[k])); err != nil {
				t.Fatalf("pass %d, chain %d: %v", pass, k, err)
			}
		}
	}
	st := cache.Stats()
	if st.Entries == 0 || st.Hits == 0 {
		t.Errorf("budget admitted no verdicts: %+v", st)
	}
	if st.Evictions == 0 {
		t.Errorf("tiny cache never evicted: %+v", st)
	}
	if st.Bytes > budget {
		t.Errorf("cache exceeded its byte budget: %+v", st)
	}
}

// TestCacheConcurrent hammers one shared cache from many goroutines with
// mixed genuine and tampered chains (run under -race): every verdict, hit
// or miss, must match the uncached baseline in every field but Timing and
// Evidence.
func TestCacheConcurrent(t *testing.T) {
	out, key, chal, reports := attestedSession(t, richProgram())
	plain := verify.New(out, key)
	cache := verify.NewCache(1 << 20)
	cached := plain.With(verify.WithCache(cache))

	corpus := tamperCorpus(chainPackets(t, reports))
	chains := make([][]*attest.Report, len(corpus))
	baseline := make([]*verify.Verdict, len(corpus))
	for i, stream := range corpus {
		chains[i] = signedChain(t, key, reports, stream)
		baseline[i] = verifyChain(t, plain, chal, chains[i])
	}

	const goroutines, rounds = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(corpus)
				// Twice in a row: the second call hits what the first stored.
				for range 2 {
					vd, err := cached.Verify(chal, chains[i])
					if err == nil {
						err = verdictDiff(baseline[i], vd)
					}
					if err != nil {
						errs <- fmt.Errorf("goroutine %d, stream %d: %w", g, i, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := cache.Stats(); st.Hits < goroutines*rounds || st.Hits+st.Misses != 2*goroutines*rounds {
		t.Errorf("cache stats %+v, want at least %d hits of %d lookups", st, goroutines*rounds, 2*goroutines*rounds)
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
