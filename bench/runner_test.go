package main

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"raptrack/internal/verify"
)

func TestCheckGates(t *testing.T) {
	honest := result{job: job{app: "prime"}, ok: true}
	hijack := result{job: job{app: "crc32", hijack: true}, code: verify.ReasonROP}
	final := scrape{
		seriesKey("raptrack_verdicts_total", "verdict", "ok"):     2,
		seriesKey("raptrack_verdicts_total", "verdict", "attack"): 1,
	}
	for _, tc := range []struct {
		name  string
		all   []result
		final scrape
		ok    bool
	}{
		{"all correct", []result{honest, honest, hijack}, final, true},
		{"tally mismatch", []result{honest, hijack}, final, false},
		{"false accept", []result{honest, honest, {job: hijack.job, ok: true}}, final, false},
		{"hijack ends in an error", []result{honest, honest, {job: hijack.job, err: errors.New("eof")}}, final, false},
		{"inconclusive is not an attack verdict", []result{honest, honest, {job: hijack.job, code: verify.ReasonInconclusive}}, final, false},
		{"busy", []result{honest, honest, hijack, {job: honest.job, busy: true, err: errors.New("busy")}}, final, false},
		{"gateway counted a failure", []result{honest, honest, hijack}, scrape{
			seriesKey("raptrack_verdicts_total", "verdict", "ok"):     2,
			seriesKey("raptrack_verdicts_total", "verdict", "attack"): 1,
			"raptrack_sessions_failed_total":                          1,
		}, false},
	} {
		out := &runOutcome{Correct: true}
		checkGates(out, tc.all, tc.final)
		if out.Correct != tc.ok {
			t.Errorf("%s: correct=%v (%v), want %v", tc.name, out.Correct, out.Problems, tc.ok)
		}
	}
}

// TestResultLine pins the final line's contract: exactly the keys
// correct, attempted, failed and metrics, and exactly one metric table.
func TestResultLine(t *testing.T) {
	o := &runOutcome{Workload: "steady", Correct: true, Attempted: 10, Failed: 0, Metrics: map[string]float64{"setup_s": 0.5, "remote.frame_decode_us": 3}}
	for _, tc := range []struct {
		trace bool
		want  []metricDef
	}{{false, endToEnd}, {true, perLayer}} {
		line := resultLine([]*runOutcome{o}, tc.trace, false)
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatal(err)
		}
		if len(got) != 4 || string(got["correct"]) != "true" || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
			t.Fatalf("result line keys: %s", line)
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(tc.want) {
			t.Errorf("trace=%v: %d metrics, want %d", tc.trace, len(metrics), len(tc.want))
		}
		for _, d := range tc.want {
			if m, ok := metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace=%v: metric %s missing or mis-united: %+v", tc.trace, d.Name, m)
			}
		}
	}
}

func TestFillEndToEnd(t *testing.T) {
	start := time.Unix(1000, 0)
	// 5000 honest sessions over 4 s: 1 ms each, but for one stall of 100 ms
	// over 60 sessions in the last second. It touches 1.2% of the window,
	// so the whole-window p99 must catch it; it sits in one of four slices,
	// so the slice p99 must not.
	var win []result
	for i := 0; i < 5000; i++ {
		at := start.Add(time.Duration(i) * 4 * time.Second / 5000)
		took := time.Millisecond
		if i >= 4000 && i < 4060 {
			took = 100 * time.Millisecond
		}
		win = append(win, result{job: job{seq: int64(i)}, start: at, end: at.Add(took), ok: true})
	}
	meas := &window{start: start, length: 4 * time.Second, cpu: 500 * time.Millisecond, rss: []int64{10e6, 30e6}}
	out := &runOutcome{Metrics: map[string]float64{}, Samples: map[string]tail{}}
	fillEndToEnd(out, &workload{}, win, meas)
	for name, want := range map[string]float64{
		"sessions_per_s":             1250,
		"latency_p50_ms":             1,
		"latency_p99_ms":             100,
		"latency_p99_slice_ms":       1,
		"gateway_cpu_us_per_session": 500000.0 / 5000,
		"gateway_rss_mb":             20,
		"fail_ratio":                 0,
	} {
		if got := out.Metrics[name]; got < want*0.999 || got > want*1.001 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if s := out.Samples["latency_p99_ms"]; s.N != 5000 || s.Q < 0.99 {
		t.Errorf("latency_p99_ms support %+v, want n=5000 at q 0.99", s)
	}
	if out.Attempted != 5000 || out.Failed != 0 {
		t.Errorf("attempted %d failed %d", out.Attempted, out.Failed)
	}
}

func TestCheckValidity(t *testing.T) {
	steady, _ := workloadByName("steady")
	diverse, _ := workloadByName("diverse")
	for _, tc := range []struct {
		w       *workload
		metrics map[string]float64
		ok      bool
	}{
		{steady, map[string]float64{"verify.cache_hit_ratio": 1}, true},
		{steady, map[string]float64{"verify.cache_hit_ratio": 0.98}, false},
		{steady, map[string]float64{"verify.cache_hit_ratio": 1, "speccfa.promotions": 1}, false},
		{diverse, map[string]float64{"verify.cache_hit_ratio": 0}, true},
		{diverse, map[string]float64{"verify.cache_hit_ratio": 0.2}, false},
	} {
		out := &runOutcome{Correct: true, Metrics: tc.metrics}
		checkValidity(out, tc.w)
		if out.Correct != tc.ok {
			t.Errorf("%s %v: correct=%v, want %v", tc.w.name, tc.metrics, out.Correct, tc.ok)
		}
	}
}
