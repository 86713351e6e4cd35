package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json (what an outside
// harness reads) and the metric and workload tables (what a run prints)
// naming the same things.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		e := doc.EndToEnd[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Bound <= 0 || e.Bound > 0.25 || (e.Better != "lower" && e.Better != "higher") {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, e, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		p := doc.PerLayer[i]
		if p.Name != d.Name || p.Unit != d.Unit || (p.Better != "lower" && p.Better != "higher") {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, p, d)
		}
	}
	for _, w := range workloads {
		if strings.ContainsAny(w.why, "\n") || len(w.why) > 200 {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
}
