package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke builds the gateway and runs every workload for about a
// second, traced, checking the correctness gates, the result line and
// the spans files. It is an end-to-end check of the harness, not a
// measurement.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end smoke run (builds and spawns the gateway)")
	}
	dir := t.TempDir()
	spans := filepath.Join(dir, "spans")
	var out bytes.Buffer
	err := run([]string{"-smoke", "-workload", "all", "-trace", "1", "-workdir", filepath.Join(dir, "work"), "-spans", spans, "-out", filepath.Join(dir, "report.json")}, &out)
	if err != nil {
		t.Fatalf("smoke run: %v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool
		Attempted int
		Metrics   map[string]metricValue
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !res.Correct || res.Attempted < 1 {
		t.Fatalf("smoke result: %+v", res)
	}
	for _, w := range workloads {
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			if _, ok := res.Metrics[w.name+"."+d.Name]; !ok {
				t.Errorf("%s: no %s in the result", w.name, d.Name)
			}
		}
		if v := res.Metrics[w.name+".ledger.layer_sum_us"].Value; v <= 0 {
			t.Errorf("%s: ledger.layer_sum_us = %v", w.name, v)
		}
		if fi, err := os.Stat(filepath.Join(spans, w.name+".spans.jsonl")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: spans file missing or empty (%v)", w.name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "report.json")); err != nil {
		t.Errorf("-out report: %v", err)
	}
}
