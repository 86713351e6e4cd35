// Gateway resilience tests: recovered verify panics, the per-app circuit
// breaker's open/probe/close cycle, dictionary quarantine on a failed
// promotion self-check, and goroutine hygiene after Close. All must pass
// under -race.
package server_test

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"raptrack/internal/attest"
	"raptrack/internal/core"
	"raptrack/internal/remote"
	"raptrack/internal/server"
	"raptrack/internal/trace"
	"raptrack/internal/verify"
)

// waitGoroutines polls until the goroutine count drops back to the
// baseline taken before the gateway existed (other runtime goroutines may
// exit meanwhile, so undershooting is fine). On timeout it dumps stacks —
// the leak's identity, not just its size.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d, baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFaultsVerifyPanicRecovered injects a panic into the verify worker:
// the poisoned session must fail with a FAIL frame (not a hung or killed
// connection), the panic must be counted, and the same worker pool must
// verify the next session normally.
func TestFaultsVerifyPanicRecovered(t *testing.T) {
	var boom atomic.Bool
	boom.Store(true)
	g, addr, ep := startGateway(t, []server.Option{
		server.WithBreaker(-1, 0), // isolate panic recovery from the breaker
		server.WithFaults(func(app string) {
			if boom.Load() {
				panic("injected verify bomb for " + app)
			}
		}, nil),
	}, "prime")

	_, err := attestApp(ep, dial(t, addr), "prime")
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("poisoned session err = %v, want a reported panic", err)
	}
	st := waitStats(t, g, func(s server.Stats) bool {
		return s.PanicsRecovered == 1 && s.SessionsFailed == 1
	})
	if st.Verifications != 1 {
		t.Errorf("stats = %+v", st)
	}

	boom.Store(false)
	gv, err := attestApp(ep, dial(t, addr), "prime")
	if err != nil || !gv.OK {
		t.Fatalf("post-panic session: %+v, %v", gv, err)
	}
	if !strings.Contains(g.Snapshot().String(), "panics recovered") {
		t.Errorf("Stats.String() missing resilience line:\n%s", g.Snapshot())
	}
}

// TestFaultsBreakerOpensShedsRecovers walks the whole breaker cycle:
// consecutive verify errors open it, open sheds carry the remaining
// cooldown as a BUSY retry-after hint, and after the cooldown a half-open
// probe closes it again.
func TestFaultsBreakerOpensShedsRecovers(t *testing.T) {
	const cooldown = 300 * time.Millisecond
	var boom atomic.Bool
	boom.Store(true)
	g, addr, ep := startGateway(t, []server.Option{
		server.WithBreaker(2, cooldown),
		server.WithFaults(func(string) {
			if boom.Load() {
				panic("injected verify bomb")
			}
		}, nil),
	}, "prime")

	for i := 0; i < 2; i++ {
		if _, err := attestApp(ep, dial(t, addr), "prime"); err == nil {
			t.Fatalf("session %d: poisoned verify succeeded", i)
		}
	}
	waitStats(t, g, func(s server.Stats) bool { return s.BreakerOpens == 1 })

	// Open: the app's sessions are shed gracefully, with a hint bounded by
	// the cooldown, and no verification work is spent on them.
	_, err := attestApp(ep, dial(t, addr), "prime")
	var be *remote.BusyError
	if !errors.As(err, &be) || !errors.Is(err, remote.ErrBusy) {
		t.Fatalf("open-breaker session err = %v, want BusyError", err)
	}
	if be.RetryAfter <= 0 || be.RetryAfter > cooldown {
		t.Errorf("retry-after hint = %v, want in (0, %v]", be.RetryAfter, cooldown)
	}
	// A client can read its FAIL frame before the gateway's session
	// goroutine counts the failure: await the second one.
	st := waitStats(t, g, func(s server.Stats) bool { return s.SessionsFailed == 2 })
	if st.BreakerSheds == 0 || st.Verifications != 2 {
		t.Errorf("stats = %+v", st)
	}

	// Cooldown elapses with the fault cleared: the next session is the
	// half-open probe, and its success closes the breaker for everyone.
	boom.Store(false)
	time.Sleep(cooldown + 50*time.Millisecond)
	gv, err := attestApp(ep, dial(t, addr), "prime")
	if err != nil || !gv.OK {
		t.Fatalf("probe session: %+v, %v", gv, err)
	}
	st = waitStats(t, g, func(s server.Stats) bool { return s.BreakerCloses == 1 })
	if st.BreakerHalfOpens != 1 || st.VerdictOK != 1 {
		t.Errorf("stats = %+v", st)
	}
	gv, err = attestApp(ep, dial(t, addr), "prime")
	if err != nil || !gv.OK {
		t.Fatalf("post-close session: %+v, %v", gv, err)
	}
}

// TestFaultsDictQuarantine corrupts every mined dictionary encoding
// before the promotion self-check: each promotion must be quarantined,
// the live dictionary must stay empty, sessions must keep verifying on
// the slow path, and no DICT frame may ever reach a prover.
func TestFaultsDictQuarantine(t *testing.T) {
	g, addr, ep := startGateway(t, []server.Option{
		server.WithMining(1, 0, 0),
		server.WithFaults(nil, func(b []byte) []byte {
			if len(b) == 0 {
				return b
			}
			return b[:len(b)-1] // truncated encoding must not survive decode
		}),
	}, "prime")

	const sessions = 3
	for i := 0; i < sessions; i++ {
		gv, err := attestApp(ep, dial(t, addr), "prime")
		if err != nil || !gv.OK {
			t.Fatalf("session %d under quarantine: %+v, %v", i, gv, err)
		}
	}
	st := waitStats(t, g, func(s server.Stats) bool { return s.DictQuarantines >= 1 })
	if st.DictPromotions != 0 || st.DictPaths != 0 {
		t.Errorf("quarantined dictionary went live: %+v", st)
	}
	if !strings.Contains(st.String(), "quarantined") {
		t.Errorf("Stats.String() missing quarantine count:\n%s", st)
	}

	// The handshake proof: a raw session's first gateway frame must be the
	// challenge — no DICT frame derived from quarantined bytes.
	conn := dial(t, addr)
	if err := remote.WriteFrame(conn, remote.FrameHello, remote.EncodeHello("prime")); err != nil {
		t.Fatal(err)
	}
	typ, _, err := remote.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != remote.FrameChal {
		t.Fatalf("first frame type = %d, want CHAL (quarantined dictionary reached the handshake)", typ)
	}
}

// TestFaultsSingleDropVerdicts pins the detection envelope for silent
// single-packet capture loss, the justification for the chaos harness's
// false-accept definition. Dropping one of prime's repetitive loop-edge
// packets leaves a log that a benign run with one fewer iteration
// genuinely produces — the verifier accepts it, and nothing short of
// per-packet sequence numbers (which the MTB does not emit) could do
// otherwise. Dropping a structurally required packet breaks the
// reconstruction and must reject as missing-evidence: degraded evidence
// fails safe, it is never misread as an attack and never accepted.
func TestFaultsSingleDropVerdicts(t *testing.T) {
	f := fixture(t, "prime")
	cases := []struct {
		packet int  // 0-based index of the single dropped MTB packet
		wantOK bool // positions pinned against prime's current trace shape
	}{
		{packet: 100, wantOK: true},   // mid-loop repetitive edge
		{packet: 1298, wantOK: true},  // repetitive edge in a later window
		{packet: 2000, wantOK: false}, // structurally required evidence
		{packet: 2595, wantOK: false}, // final packet: tail structure lost
	}
	for _, tc := range cases {
		p, err := core.NewProver(f.link, f.key, core.ProverConfig{SetupMem: f.app.SetupMem()})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		p.Engine.MTB.Faults = &trace.MTBFaults{
			Drop: func(uint32, uint32) bool {
				n++
				return n-1 == tc.packet
			},
		}
		chal, err := attest.NewChallenge("prime")
		if err != nil {
			t.Fatal(err)
		}
		reports, _, err := p.Attest(chal)
		if err != nil {
			t.Fatalf("drop #%d: attest: %v", tc.packet, err)
		}
		if p.Engine.MTB.InjectedDrops != 1 {
			t.Fatalf("drop #%d: %d packets dropped, want 1", tc.packet, p.Engine.MTB.InjectedDrops)
		}
		vd, err := core.NewVerifier(f.link, f.key).Verify(chal, reports)
		if err != nil {
			t.Fatalf("drop #%d: verify: %v", tc.packet, err)
		}
		if vd.OK != tc.wantOK {
			t.Errorf("drop #%d: OK = %v, want %v (code %v)", tc.packet, vd.OK, tc.wantOK, vd.Code)
		}
		if !vd.OK && vd.Code != verify.ReasonMissingEvidence {
			t.Errorf("drop #%d: code = %v, want missing-evidence (loss must fail safe, not claim attack)",
				tc.packet, vd.Code)
		}
	}
}

// TestGatewayCloseReleasesGoroutines: sessions, workers, and the accept
// loop must all be gone after Close — the gateway borrows goroutines, it
// does not keep them.
func TestGatewayCloseReleasesGoroutines(t *testing.T) {
	f := fixture(t, "prime") // build the fixture before the baseline
	before := runtime.NumGoroutine()

	g := server.New(server.WithVerifyWorkers(4, 0))
	g.Register("prime", core.NewVerifier(f.link, f.key))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- g.Serve(ln) }()

	ep := remote.NewProverEndpoint()
	f.provision(ep, 0)
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		gv, err := attestApp(ep, conn, "prime")
		conn.Close()
		if err != nil || !gv.OK {
			t.Fatalf("session %d: %+v, %v", i, gv, err)
		}
	}

	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
}
