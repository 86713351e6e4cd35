package server_test

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"raptrack/internal/obs"
	"raptrack/internal/remote"
	"raptrack/internal/server"
)

// TestGatewayStressConcurrent throws a mixed fleet at one gateway over
// loopback TCP: benign provers for two different apps, watermarked
// provers streaming many partial reports, and clients announcing an
// unprovisioned app. Every session must end with the correct outcome and
// the stats must add up exactly. Run under -race.
func TestGatewayStressConcurrent(t *testing.T) {
	const (
		benignPrime = 12 // full-buffer sessions, app "prime"
		benignGPS   = 8  // app "gps"
		streamed    = 6  // watermarked "gps" sessions (many partials)
		unknown     = 4  // sessions for an unprovisioned app
	)
	total := benignPrime + benignGPS + streamed + unknown

	g, addr, ep := startGateway(t, []server.Option{
		server.WithSessionSlots(total), // no shedding in this test: every session counts
		server.WithVerifyWorkers(4, 0),
	}, "prime", "gps")
	// A second endpoint whose gps prover emits partials every 512 bytes:
	// same key and link, so the gateway accepts its chains too.
	streamEP := remote.NewProverEndpoint()
	fixture(t, "gps").provision(streamEP, 512)

	type task struct {
		ep      *remote.ProverEndpoint
		app     string
		wantOK  bool
		wantErr string // substring of the expected error ("" = success)
	}
	var tasks []task
	for i := 0; i < benignPrime; i++ {
		tasks = append(tasks, task{ep: ep, app: "prime", wantOK: true})
	}
	for i := 0; i < benignGPS; i++ {
		tasks = append(tasks, task{ep: ep, app: "gps", wantOK: true})
	}
	for i := 0; i < streamed; i++ {
		tasks = append(tasks, task{ep: streamEP, app: "gps", wantOK: true})
	}
	for i := 0; i < unknown; i++ {
		tasks = append(tasks, task{ep: ep, app: "rogue", wantErr: "unknown application"})
	}

	var wg sync.WaitGroup
	errs := make(chan error, total)
	for i, tk := range tasks {
		wg.Add(1)
		go func(i int, tk task) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- fmt.Errorf("client %d: dial: %w", i, err)
				return
			}
			defer conn.Close()
			gv, err := attestApp(tk.ep, conn, tk.app)
			switch {
			case tk.wantErr != "":
				if err == nil || !strings.Contains(err.Error(), tk.wantErr) {
					errs <- fmt.Errorf("client %d (%s): err = %v, want %q", i, tk.app, err, tk.wantErr)
				}
			case err != nil:
				errs <- fmt.Errorf("client %d (%s): %w", i, tk.app, err)
			case gv.OK != tk.wantOK:
				errs <- fmt.Errorf("client %d (%s): verdict %+v, want OK=%v", i, tk.app, gv, tk.wantOK)
			}
		}(i, tk)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Quiescent now (every Attest returned after the gateway's final
	// frame), so the counters must balance exactly.
	st := g.Snapshot()
	wantOK := uint64(benignPrime + benignGPS + streamed)
	if st.SessionsStarted != uint64(total) || st.SessionsAccepted != uint64(total) {
		t.Errorf("sessions: %+v, want %d started and accepted", st, total)
	}
	if st.SessionsRejected != 0 {
		t.Errorf("unexpected shedding: %+v", st)
	}
	if st.VerdictOK != wantOK || st.VerdictAttack != 0 {
		t.Errorf("verdicts: %+v, want %d ok", st, wantOK)
	}
	if st.SessionsFailed != unknown {
		t.Errorf("failed: %+v, want %d", st, unknown)
	}
	if st.Verifications != wantOK {
		t.Errorf("verifications: %+v, want %d", st, wantOK)
	}
	if got := st.VerdictOK + st.VerdictAttack + st.SessionsFailed; got != st.SessionsAccepted {
		t.Errorf("accounting: ok+attack+failed = %d, accepted = %d", got, st.SessionsAccepted)
	}
	if st.BytesIn == 0 || st.BytesOut == 0 {
		t.Errorf("byte counters: %+v", st)
	}

	// One of everything happened under concurrency; the shared verifiers
	// must still be reusable afterwards.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	gv, err := attestApp(ep, conn, "prime")
	if err != nil || !gv.OK {
		t.Fatalf("post-stress session: %+v, %v", gv, err)
	}
}

// TestGatewayMetricsScrapeUnderLoad hammers /metrics and /debug/sessions
// through the real admin handler while the mixed stress fleet runs, then
// checks the final scrape against the drained Snapshot. The point is the
// data race surface: scrape-time gauges walk the gateway's app map and
// cache stats concurrently with sessions mutating them. Run under -race.
func TestGatewayMetricsScrapeUnderLoad(t *testing.T) {
	const (
		benignPrime = 12
		benignGPS   = 8
		streamed    = 6
		unknown     = 4
	)
	total := benignPrime + benignGPS + streamed + unknown

	observer := obs.NewObserver(nil, 8)
	g, addr, ep := startGateway(t, []server.Option{
		server.WithSessionSlots(total),
		server.WithVerifyWorkers(4, 0),
		server.WithObserver(observer),
	}, "prime", "gps")
	streamEP := remote.NewProverEndpoint()
	fixture(t, "gps").provision(streamEP, 512)

	admin := httptest.NewServer(obs.AdminHandler(observer))
	defer admin.Close()
	scrape := func(path string) string {
		resp, err := http.Get(admin.URL + path)
		if err != nil {
			t.Errorf("scrape %s: %v", path, err)
			return ""
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("scrape %s: status %d, read err %v", path, resp.StatusCode, err)
			return ""
		}
		return string(body)
	}

	// Scrapers spin for the whole workload; each pass touches both the
	// Prometheus exposition and the JSON trace dump.
	done := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 3; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if body := scrape("/metrics"); body != "" &&
					!strings.Contains(body, "raptrack_sessions_started_total") {
					t.Error("scrape missing raptrack_sessions_started_total")
				}
				scrape("/debug/sessions")
			}
		}()
	}

	var wg sync.WaitGroup
	errs := make(chan error, total)
	for i := 0; i < total; i++ {
		app, tep, wantErr := "prime", ep, ""
		switch {
		case i >= benignPrime+benignGPS+streamed:
			app, wantErr = "rogue", "unknown application"
		case i >= benignPrime+benignGPS:
			app, tep = "gps", streamEP
		case i >= benignPrime:
			app = "gps"
		}
		wg.Add(1)
		go func(i int, app string, tep *remote.ProverEndpoint, wantErr string) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- fmt.Errorf("client %d: dial: %w", i, err)
				return
			}
			defer conn.Close()
			gv, err := attestApp(tep, conn, app)
			switch {
			case wantErr != "":
				if err == nil || !strings.Contains(err.Error(), wantErr) {
					errs <- fmt.Errorf("client %d (%s): err = %v, want %q", i, app, err, wantErr)
				}
			case err != nil:
				errs <- fmt.Errorf("client %d (%s): %w", i, app, err)
			case !gv.OK:
				errs <- fmt.Errorf("client %d (%s): verdict %+v", i, app, gv)
			}
		}(i, app, tep, wantErr)
	}
	wg.Wait()
	close(done)
	scrapers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Quiescent: the final scrape and the Snapshot must agree exactly.
	st := g.Snapshot()
	final := scrape("/metrics")
	for _, want := range []string{
		fmt.Sprintf("raptrack_sessions_started_total %d", st.SessionsStarted),
		fmt.Sprintf(`raptrack_verdicts_total{verdict="ok"} %d`, st.VerdictOK),
		fmt.Sprintf("raptrack_verify_seconds_count %d", st.Verifications),
		fmt.Sprintf("raptrack_cache_hits_total %d", st.CacheHits),
		`raptrack_stage_seconds_bucket{stage="verify"`,
		`raptrack_breaker_state{app="prime"} 0`,
	} {
		if !strings.Contains(final, want) {
			t.Errorf("final scrape missing %q", want)
		}
	}
	if st.SessionsStarted != uint64(total) || st.VerdictOK != uint64(benignPrime+benignGPS+streamed) {
		t.Errorf("stats after scrape-under-load: %+v", st)
	}

	// The trace rings saw every app the workload announced.
	dump := scrape("/debug/sessions")
	for _, app := range []string{"prime", "gps"} {
		if !strings.Contains(dump, fmt.Sprintf("%q", app)) {
			t.Errorf("/debug/sessions missing app %q", app)
		}
	}
}
