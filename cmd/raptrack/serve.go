package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"raptrack/internal/apps"
	"raptrack/internal/attest"
	"raptrack/internal/core"
	"raptrack/internal/faults"
	"raptrack/internal/journal"
	"raptrack/internal/obs"
	"raptrack/internal/remote"
	"raptrack/internal/server"
)

// cmdServe runs the concurrent attestation gateway: it provisions a
// shared Verifier per workload, serves prover sessions on a TCP listener,
// and prints the stats snapshot on shutdown. With -admin it additionally
// serves the observability endpoint (Prometheus /metrics, JSON
// /debug/sessions, pprof) on a second listener. With -selftest N it
// instead drives N concurrent in-process prover clients through the
// listener and exits — a one-command load check of the whole networking
// path.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7421", "listen address")
	adminAddr := fs.String("admin", "", "admin endpoint address (/metrics, /debug/sessions, pprof; empty: off)")
	metricsOut := fs.String("metrics-out", "", "write a final /metrics scrape to this file on shutdown (atomically; also snapshotted every -metrics-interval)")
	metricsInterval := fs.Duration("metrics-interval", 30*time.Second, "periodic -metrics-out snapshot period (0: final scrape only)")
	journalDir := fs.String("journal", "", "durable evidence plane: journal every verdict and dictionary version under this directory (empty: off)")
	journalFsync := fs.String("journal-fsync", "each", "journal durability policy: each (group commit), interval, never")
	journalSegBytes := fs.Int64("journal-segment-bytes", 0, "journal segment rotation size (0: 1 MiB default)")
	traceRing := fs.Int("trace-ring", 0, "session traces kept per app for /debug/sessions (0: default 64)")
	appList := fs.String("apps", "", "comma-separated workloads to serve (default: all)")
	maxSessions := fs.Int("max-sessions", 64, "concurrent session cap (beyond: BUSY shed)")
	workers := fs.Int("workers", 0, "verification worker pool size (0: GOMAXPROCS)")
	sessionTimeout := fs.Duration("session-timeout", 30*time.Second, "whole-session deadline")
	ioTimeout := fs.Duration("io-timeout", 10*time.Second, "per-read/write deadline")
	cacheBytes := fs.Int64("cache-bytes", 0, "verification cache budget in bytes (0: 64 MiB default, negative: off)")
	mineEvery := fs.Int("mine-every", 0, "mine the dictionary every Nth accepted session that missed the verdict cache (0: default 16, negative: off)")
	minePaths := fs.Int("mine-paths", 0, "sub-paths to mine per pass (0: default 8)")
	maxDictPaths := fs.Int("max-dict-paths", 0, "live dictionary size cap (0: default 32)")
	busyRetryAfter := fs.Duration("busy-retry-after", 0, "retry-after hint carried in BUSY sheds (0: no hint)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive verify errors before the per-app breaker opens (0: default 8, negative: off)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "open-breaker shed window before a half-open probe (0: default 2s)")
	selftest := fs.Int("selftest", 0, "drive N concurrent local prover sessions, print stats, exit")
	watermark := fs.Int("watermark", 0, "MTB watermark for selftest provers (0: buffer size)")
	verbose := fs.Bool("v", false, "log per-session failures")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var names []string
	if *appList == "" {
		for _, a := range apps.All() {
			names = append(names, a.Name)
		}
	} else {
		names = strings.Split(*appList, ",")
	}

	// One observer binds the gateway's registry and trace rings to the
	// admin endpoint and the shutdown scrape. A zero-plan fault injector
	// registers alongside so the injected-fault families are always
	// present (and provably zero) on production scrapes.
	observer := obs.NewObserver(nil, *traceRing)
	faults.New(0, faults.Plan{}).RegisterMetrics(observer.Registry())

	var jnl *journal.Journal
	if *journalDir != "" {
		var policy journal.FsyncPolicy
		switch *journalFsync {
		case "each":
			policy = journal.SyncEach
		case "interval":
			policy = journal.SyncInterval
		case "never":
			policy = journal.SyncNever
		default:
			return fmt.Errorf("unknown -journal-fsync policy %q (each, interval, never)", *journalFsync)
		}
		var err error
		jnl, err = journal.Open(*journalDir, journal.Options{
			Fsync:        policy,
			SegmentBytes: *journalSegBytes,
		})
		if err != nil {
			return fmt.Errorf("opening journal: %w", err)
		}
		defer jnl.Close()
		jnl.RegisterMetrics(observer.Registry())
		c := jnl.Counters()
		fmt.Printf("journal at %s (recovered %d records, next seq %d)\n",
			*journalDir, c.Recovered, jnl.NextSeq())
	}

	opts := []server.Option{
		server.WithSessionSlots(*maxSessions),
		server.WithVerifyWorkers(*workers, 0),
		server.WithTimeouts(*sessionTimeout, *ioTimeout),
		server.WithCache(*cacheBytes),
		server.WithMining(*mineEvery, *minePaths, *maxDictPaths),
		server.WithBusyRetryAfter(*busyRetryAfter),
		server.WithBreaker(*breakerThreshold, *breakerCooldown),
		server.WithObserver(observer),
	}
	if jnl != nil {
		opts = append(opts, server.WithJournal(jnl))
	}
	if *verbose {
		opts = append(opts, server.WithSessionErrorHandler(func(addr string, err error) {
			fmt.Fprintf(os.Stderr, "session %s: %v\n", addr, err)
		}))
	}
	gw := server.New(opts...)
	defer gw.Close()

	// One golden artifact, key, and shared Verifier per app. The key would
	// normally come from device provisioning; the demo gateway generates
	// fresh ones and hands them to its selftest provers.
	ep := remote.NewProverEndpoint()
	for _, name := range names {
		name := strings.TrimSpace(name)
		a, err := apps.Get(name)
		if err != nil {
			return err
		}
		link, err := core.LinkForCFA(a.Build(), core.DefaultLinkOptions())
		if err != nil {
			return fmt.Errorf("linking %s: %w", name, err)
		}
		key, err := appKey(*journalDir, name)
		if err != nil {
			return err
		}
		gw.Register(name, core.NewVerifier(link, key))
		app := a
		ep.Provision(name, func() (*core.Prover, error) {
			return core.NewProver(link, key, core.ProverConfig{
				SetupMem:  app.SetupMem(),
				Watermark: *watermark,
			})
		})
		hmem := link.Image.Hash()
		fmt.Printf("provisioned %-12s (H_MEM %x...)\n", name, hmem[:8])
	}

	var adminSrv *http.Server
	var adminURL string
	if *adminAddr != "" {
		aln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			return fmt.Errorf("admin listener: %w", err)
		}
		adminURL = "http://" + aln.Addr().String()
		var adminOpts []obs.AdminOption
		if jnl != nil {
			adminOpts = append(adminOpts,
				obs.WithHealth("journal", func() obs.HealthStatus {
					ok, detail := jnl.Health()
					if ok {
						return obs.HealthStatus{Level: obs.HealthOK, Detail: detail}
					}
					// Degraded, never down: an evidence plane shedding to
					// memory must not get the gateway restart-looped.
					return obs.HealthStatus{Level: obs.HealthDegraded, Detail: detail}
				}),
				obs.WithRoute("/debug/journal", journal.AuditHandler(jnl)),
			)
		}
		adminSrv = &http.Server{Handler: obs.AdminHandler(observer, adminOpts...)}
		go func() { _ = adminSrv.Serve(aln) }()
		fmt.Printf("admin endpoint on %s (/metrics, /debug/sessions, /debug/pprof)\n", aln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- gw.Serve(ln) }()
	fmt.Printf("gateway listening on %s (%d apps, %d slots)\n", ln.Addr(), len(names), *maxSessions)

	// Periodic -metrics-out snapshots: a killed gateway loses at most one
	// interval of metrics, and each snapshot is atomic, so the file on
	// disk is always one complete exposition.
	var snapStop chan struct{}
	var snapDone chan struct{}
	if *metricsOut != "" && *metricsInterval > 0 {
		snapStop, snapDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(snapDone)
			t := time.NewTicker(*metricsInterval)
			defer t.Stop()
			for {
				select {
				case <-snapStop:
					return
				case <-t.C:
					_ = writeMetrics(*metricsOut, adminURL, observer.Registry())
				}
			}
		}()
	}

	if *selftest > 0 {
		if err := runSelftest(gw, ep, ln.Addr().String(), names, *selftest); err != nil {
			return err
		}
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		select {
		case s := <-sig:
			fmt.Printf("\n%v: shutting down\n", s)
		case err := <-serveErr:
			if err != nil {
				return err
			}
		}
	}

	// Drain before reading anything: in-flight sessions and queued verify
	// jobs land in the registry only once Close returns, so the snapshot
	// (and the selftest's latency line) reflects every session.
	if err := gw.Close(); err != nil {
		return err
	}
	snap := gw.Snapshot()
	fmt.Print(snap)
	if *selftest > 0 && snap.Verifications > 0 {
		fmt.Printf("selftest: verify latency avg %v over %d verifications\n",
			(snap.VerifyTotal / time.Duration(snap.Verifications)).Round(time.Microsecond),
			snap.Verifications)
	}

	if snapStop != nil {
		close(snapStop)
		<-snapDone
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, adminURL, observer.Registry()); err != nil {
			return err
		}
		fmt.Printf("metrics written:   %s\n", *metricsOut)
	}
	if adminSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = adminSrv.Shutdown(ctx)
	}
	return nil
}

// appKey returns the app's attestation key. Without a journal the demo
// gateway generates a fresh key per run; with one, the key persists
// under <journalDir>/keys/ so a later `raptrack replay` can re-verify
// the journaled evidence — HMAC report chains are only checkable with
// the key the device signed with.
func appKey(journalDir, app string) (*attest.HMACKey, error) {
	if journalDir == "" {
		return attest.GenerateHMACKey()
	}
	path := filepath.Join(journalDir, "keys", app+".key")
	if raw, err := os.ReadFile(path); err == nil && len(raw) > 0 {
		return attest.NewHMACKey(raw), nil
	}
	key, err := attest.GenerateHMACKey()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o700); err != nil {
		return nil, fmt.Errorf("journal key store: %w", err)
	}
	if err := journal.WriteFileAtomic(nil, path, key.Key(), 0o600); err != nil {
		return nil, err
	}
	return key, nil
}

// writeMetrics persists one exposition scrape atomically (temp-file +
// rename: a reader or a crash never sees a torn exposition). When the
// admin endpoint is up the scrape goes through a real HTTP GET — proving
// the served bytes, not just the registry — and falls back to rendering
// the registry directly otherwise.
func writeMetrics(path, adminURL string, reg *obs.Registry) error {
	if adminURL != "" {
		resp, err := http.Get(adminURL + "/metrics")
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				return journal.WriteFileAtomic(nil, path, body, 0o644)
			}
		}
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		return err
	}
	return journal.WriteFileAtomic(nil, path, []byte(buf.String()), 0o644)
}

// runSelftest dials n concurrent prover sessions (round-robin over the
// provisioned apps) into the gateway's own listener. A sequential warmup
// session per app runs first so the concurrent batch exercises the fast
// path: warmed verdict caches and a freshly mined dictionary.
func runSelftest(g *server.Gateway, ep *remote.ProverEndpoint, addr string, names []string, n int) error {
	fmt.Printf("selftest: warmup round over %d apps\n", len(names))
	for _, app := range names {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return fmt.Errorf("warmup %s: dial: %w", app, err)
		}
		gv, err := remote.NewClient(ep).Attest(conn, app)
		conn.Close()
		if err != nil {
			return fmt.Errorf("warmup %s: %w", app, err)
		}
		if !gv.OK {
			return fmt.Errorf("warmup %s: verdict REJECTED: %s", app, gv.Reason())
		}
	}

	// The concurrent batch attests through the production retry loop, so a
	// BUSY shed (session cap or an open breaker) backs off and retries
	// instead of failing the selftest; retry totals land in the gateway
	// stats via ObserveProverRetries.
	fmt.Printf("selftest: %d concurrent prover sessions\n", n)
	start := time.Now()
	var wg sync.WaitGroup
	var retries atomic.Uint64
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			app := names[i%len(names)]
			dial := func() (io.ReadWriteCloser, error) { return net.Dial("tcp", addr) }
			gv, st, err := remote.NewClient(ep, remote.WithRetry(remote.RetryPolicy{})).AttestDial(app, dial)
			retries.Add(uint64(st.Retries))
			if err != nil {
				errs <- fmt.Errorf("session %d (%s): %w", i, app, err)
				return
			}
			if !gv.OK {
				errs <- fmt.Errorf("session %d (%s): verdict REJECTED: %s", i, app, gv.Reason())
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	g.ObserveProverRetries(retries.Load())
	failed := 0
	for err := range errs {
		failed++
		fmt.Fprintln(os.Stderr, "selftest:", err)
	}
	fmt.Printf("selftest: %d/%d sessions ok in %v (%d retries)\n",
		n-failed, n, time.Since(start).Round(time.Millisecond), retries.Load())
	if failed > 0 {
		return fmt.Errorf("selftest: %d sessions failed", failed)
	}
	return nil
}
