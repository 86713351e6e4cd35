package core

import (
	"runtime"
	"testing"

	"raptrack/internal/apps"
	"raptrack/internal/attest"
	"raptrack/internal/verify"
)

// TestVerifyGeometry bounds the search complexity on the most ambiguous
// workload (crc32: per-bit conditionals inside a per-byte guard): the memo
// must stay polynomial — entries linear in evidence, outcomes at most
// quadratic (the triangle of structurally-possible prefix completions) —
// and one reconstruction's allocations stay bounded: outcomes live in a
// recycled arena, not one heap object each.
func TestVerifyGeometry(t *testing.T) {
	a, err := apps.Get("crc32")
	if err != nil {
		t.Fatal(err)
	}
	out, err := LinkForCFA(a.Build(), DefaultLinkOptions())
	if err != nil {
		t.Fatal(err)
	}
	key, _ := attest.GenerateHMACKey()
	prover, _ := NewProver(out, key, ProverConfig{SetupMem: a.SetupMem()})
	chal := mustChal(t, "crc32")
	reports, _, err := prover.Attest(chal)
	if err != nil {
		t.Fatal(err)
	}
	var log []byte
	for _, r := range reports {
		log = append(log, r.CFLog...)
	}
	pkts := decodeMTB(t, log)
	v := NewVerifier(out, key)
	entries, outcomes, advs, work := verify.Diag(v, pkts)
	t.Logf("crc32: packets=%d entries=%d outcomes=%d advs=%d work=%d",
		len(pkts), entries, outcomes, advs, work)
	n := len(pkts)
	if entries > 8*n {
		t.Errorf("entries %d super-linear in %d packets", entries, n)
	}
	if outcomes > 2*n*n {
		t.Errorf("outcomes %d super-quadratic in %d packets", outcomes, n)
	}
	if work > uint64(100*n) {
		t.Errorf("abstract work %d super-linear-ish in %d packets", work, n)
	}

	// Allocations of one uncached reconstruction, after a warm-up run has
	// filled the arena's free list.
	v.ReplayPackets(pkts)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if vd := v.ReplayPackets(pkts); !vd.OK {
		t.Fatalf("crc32 rejected: %s", vd.Reason())
	}
	runtime.ReadMemStats(&after)
	allocs, mb := after.Mallocs-before.Mallocs, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)
	t.Logf("crc32: one reconstruction allocates %d objects, %.1f MB", allocs, mb)
	if allocs > 100_000 {
		t.Errorf("reconstruction allocated %d objects, want <= 100k", allocs)
	}
	if mb > 100 {
		t.Errorf("reconstruction allocated %.1f MB, want <= 100 MB", mb)
	}
}
