package main

import (
	"reflect"
	"testing"

	"raptrack/internal/attest"
)

func firstJobs(w *workload, seed uint64, n int) []job {
	g := newJobGen(w, seed)
	out := make([]job, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestJobsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a := firstJobs(w, 42, 2000)
		if b := firstJobs(w, 42, 2000); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed produced different job lists", w.name)
		}
		c := firstJobs(w, 43, 2000)
		same := 0
		for i := range a {
			if a[i].device == c[i].device && a[i].app == c[i].app && a[i].due == c[i].due && a[i].at == c[i].at {
				same++
			}
		}
		if same > len(a)/10 {
			t.Errorf("%s: seeds 42 and 43 agree on %d of %d jobs", w.name, same, len(a))
		}
	}
}

func TestOpenLoopDueTimes(t *testing.T) {
	w, _ := workloadByName("steady")
	jobs := firstJobs(w, 7, 20000)
	for i := 1; i < len(jobs); i++ {
		if jobs[i].due < jobs[i-1].due {
			t.Fatalf("due times go backwards at job %d", i)
		}
	}
	rate := float64(len(jobs)) / jobs[len(jobs)-1].due.Seconds()
	if rate < 0.97*w.rate || rate > 1.03*w.rate {
		t.Errorf("mean arrival rate %.1f/s, want %.0f/s", rate, w.rate)
	}
}

// TestHijackShareAndSpread pins the hostile mix: exactly one hijack per
// block, apps in equal turns, and each app's positions spread over the
// whole evidence.
func TestHijackShareAndSpread(t *testing.T) {
	w, _ := workloadByName("hostile")
	jobs := firstJobs(w, 9, 8*400)
	perApp := map[string][]float64{}
	for b := 0; b < len(jobs)/8; b++ {
		n := 0
		for _, j := range jobs[8*b : 8*b+8] {
			if j.hijack {
				n++
				perApp[j.app] = append(perApp[j.app], j.at)
			}
		}
		if n != 1 {
			t.Fatalf("block %d has %d hijacks, want 1", b, n)
		}
	}
	for app, ats := range perApp {
		if len(ats) != 100 {
			t.Errorf("%s: %d hijacks, want 100", app, len(ats))
		}
		var quarter [4]int
		for _, a := range ats {
			quarter[int(a*4)]++
		}
		for q, n := range quarter {
			if n < 20 || n > 30 {
				t.Errorf("%s: %d of 100 hijack positions in quarter %d", app, n, q)
			}
		}
	}
}

func TestPoolCycling(t *testing.T) {
	w, _ := workloadByName("diverse")
	jobs := firstJobs(w, 3, 2*w.pool+4)
	for i, j := range jobs {
		if want := w.apps[i%2]; j.app != want {
			t.Fatalf("job %d attests %s, want %s", i, j.app, want)
		}
		if i >= 2 && j.pool != (jobs[i-2].pool+1)%w.pool {
			t.Fatalf("job %d pool index %d does not follow %d", i, j.pool, jobs[i-2].pool)
		}
	}
}

func TestSampleCounts(t *testing.T) {
	for _, w := range workloads {
		s := newJobGen(w, 1).sample(100, 12)
		var honest, hijacked int
		for _, j := range s {
			if j.hijack {
				hijacked++
			} else {
				honest++
			}
		}
		want := 12
		if w.hijackEvery == 0 {
			want = 0
		}
		if honest != 100 || hijacked != want {
			t.Errorf("%s: sample has %d honest, %d hijacked; want 100, %d", w.name, honest, hijacked, want)
		}
	}
}

func TestPlaceHijack(t *testing.T) {
	chain := []*attest.Report{
		{CFLog: make([]byte, 80)}, {CFLog: make([]byte, 4)}, {CFLog: make([]byte, 160)}, {CFLog: make([]byte, 80)},
	}
	for _, tc := range []struct {
		at           float64
		stream       bool
		report, pack int
	}{
		{0, false, 0, 0},
		{0.3, false, 2, 2},   // 40 eligible packets: index 12 is report 2's third
		{0.999, false, 3, 9}, // the last packet of the last report
		{0, true, 2, 0},      // streamed: first and last slices are never hijacked
		{0.999, true, 2, 19},
	} {
		hj, err := placeHijack(job{at: tc.at, seq: 5}, chain, tc.stream)
		if err != nil {
			t.Fatal(err)
		}
		if hj.report != tc.report || hj.packet != tc.pack {
			t.Errorf("at %v stream %v: got report %d packet %d, want %d %d", tc.at, tc.stream, hj.report, hj.packet, tc.report, tc.pack)
		}
	}
	if gadgetFor(1) == gadgetFor(2) || gadgetFor(1<<26-1) >= 0xff000000 {
		t.Error("gadget addresses must be per-session and stay below the SpecCFA marker range")
	}
}
