package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// testdata/metrics.txt is a /metrics scrape of `raptrack serve` after a
// short selftest (two apps, six verdicts, journal on).
func loadScrape(t *testing.T) scrape {
	t.Helper()
	f, err := os.Open("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := parseProm(f)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParsePromGatewayScrape(t *testing.T) {
	s := loadScrape(t)
	for _, tc := range []struct {
		got, want float64
		what      string
	}{
		{s.get("raptrack_verdicts_total", "verdict", "ok"), 6, "ok verdicts"},
		{s.get("raptrack_verdicts_total", "verdict", "attack"), 0, "attack verdicts"},
		{s.get("raptrack_journal_appended_total"), 8, "journal records"},
		{s.get("raptrack_journal_fsyncs_total"), 7, "fsyncs"},
		{s.get("raptrack_io_bytes_total", "dir", "in"), 96809, "bytes in"},
		// Label order in the query does not matter.
		{s.get("raptrack_frames_total", "type", "rprt", "dir", "in"), 33, "rprt frames in"},
		{s.sumWhere("raptrack_frames_total", "dir", "in"), 39, "frames in"},
		{s.sum("raptrack_verdicts_total"), 6, "all verdicts"},
		{s.get("raptrack_verify_seconds_bucket", "le", "+Inf"), 6, "+Inf bucket"},
		{s.histMean("raptrack_verify_seconds"), 0.008582895 / 6, "mean verify"},
		{s.histMean("raptrack_stage_seconds", "stage", "verify"), 0.025823900999999996 / 6, "mean verify stage"},
	} {
		if math.Abs(tc.got-tc.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", tc.what, tc.got, tc.want)
		}
	}
	if len(s) < 200 {
		t.Errorf("parsed %d series, the scrape holds over 200", len(s))
	}
}

func TestParsePromSyntax(t *testing.T) {
	in := strings.Join([]string{
		"# HELP demo_total A counter.",
		"# TYPE demo_total counter",
		`demo_total{b="2",a="x\"y\\z\n"} 3 1700000000000`,
		"",
		"demo_gauge -1.5e+3",
		`demo_seconds_bucket{le="+Inf"} 4`,
	}, "\n")
	s, err := parseProm(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.get("demo_total", "a", "x\"y\\z\n", "b", "2"); got != 3 {
		t.Errorf("escaped label series = %v, want 3", got)
	}
	if got := s.get("demo_gauge"); got != -1500 {
		t.Errorf("demo_gauge = %v, want -1500", got)
	}
	if got := s.get("demo_seconds_bucket", "le", "+Inf"); got != 4 {
		t.Errorf("bucket = %v, want 4", got)
	}
	for _, bad := range []string{
		`demo{a="unterminated} 1`,
		`demo{a=x} 1`,
		`demo 1 2 3`,
		`demo notanumber`,
		`demo`,
	} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted malformed input", bad)
		}
	}
}

func TestScrapeDelta(t *testing.T) {
	base := scrape{"a_total": 5, `h_seconds_sum{stage="x"}`: 1, `h_seconds_count{stage="x"}`: 4}
	now := scrape{"a_total": 12, `h_seconds_sum{stage="x"}`: 4, `h_seconds_count{stage="x"}`: 10}
	d := now.sub(base)
	if d.get("a_total") != 7 {
		t.Errorf("counter delta = %v, want 7", d.get("a_total"))
	}
	if got := d.histMean("h_seconds", "stage", "x"); got != 0.5 {
		t.Errorf("window histogram mean = %v, want 0.5", got)
	}
	if got := d.histMean("missing_seconds"); got != 0 {
		t.Errorf("mean of an absent histogram = %v, want 0", got)
	}
}
