package report

import (
	"strings"
	"testing"
	"time"
)

// TestVerifyBenchMatrix runs the engine matrix and the reject cell on the
// cheapest workload with a tiny budget: the point is shape and sanity of
// the artifact, not stable numbers (CI's bench-verify target measures for
// real).
func TestVerifyBenchMatrix(t *testing.T) {
	rs, err := VerifyBench([]string{"temperature"}, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 5 {
		t.Fatalf("cells = %d, want 5 (engine x cache, plus reject)", len(rs))
	}
	seen := map[string]bool{}
	for _, r := range rs {
		seen[r.Engine+"/"+map[bool]string{false: "off", true: "on"}[r.Cache]] = true
		if r.App != "temperature" {
			t.Errorf("app = %q", r.App)
		}
		if r.NsPerOp <= 0 || r.Iterations <= 0 || r.SessionsPerSec <= 0 {
			t.Errorf("%s/cache=%v: empty measurement: %+v", r.Engine, r.Cache, r)
		}
		if r.LogBytes <= 0 {
			t.Errorf("%s/cache=%v: missing log size", r.Engine, r.Cache)
		}
	}
	for _, cell := range []string{"interp/off", "interp/on", "automaton/off", "automaton/on", "reject/on"} {
		if !seen[cell] {
			t.Errorf("matrix missing cell %s", cell)
		}
	}

	tab := VerifyBenchTable(rs)
	for _, w := range []string{"temperature", "interp", "automaton", "reject", "speedup", "x"} {
		if !strings.Contains(tab, w) {
			t.Errorf("table missing %q:\n%s", w, tab)
		}
	}
}

func TestVerifyBenchUnknownApp(t *testing.T) {
	if _, err := VerifyBench([]string{"no-such-app"}, time.Millisecond); err == nil {
		t.Fatal("expected error for unknown app")
	}
}
