// Gateway behavior tests: round trips, BUSY shedding at the session cap,
// deadline enforcement against stalled and dribbling clients, and the
// stats contract. All must pass under -race.
package server_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"raptrack/internal/apps"
	"raptrack/internal/attest"
	"raptrack/internal/core"
	"raptrack/internal/linker"
	"raptrack/internal/remote"
	"raptrack/internal/server"
	"raptrack/internal/verify"
)

// appFixture is one provisioned application: the golden artifact plus the
// shared HMAC key, reused across tests (linking is the expensive part).
type appFixture struct {
	name string
	link *linker.Output
	key  *attest.HMACKey
	app  apps.App
}

var (
	fixturesMu sync.Mutex
	fixtures   = map[string]*appFixture{}
)

func fixture(t testing.TB, name string) *appFixture {
	t.Helper()
	fixturesMu.Lock()
	defer fixturesMu.Unlock()
	if f, ok := fixtures[name]; ok {
		return f
	}
	a, err := apps.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	link, err := core.LinkForCFA(a.Build(), core.DefaultLinkOptions())
	if err != nil {
		t.Fatal(err)
	}
	key, err := attest.GenerateHMACKey()
	if err != nil {
		t.Fatal(err)
	}
	f := &appFixture{name: name, link: link, key: key, app: a}
	fixtures[name] = f
	return f
}

func (f *appFixture) provision(ep *remote.ProverEndpoint, watermark int) {
	ep.Provision(f.name, func() (*core.Prover, error) {
		return core.NewProver(f.link, f.key, core.ProverConfig{
			SetupMem:  f.app.SetupMem(),
			Watermark: watermark,
		})
	})
}

// startGateway serves the named apps on a loopback listener and returns
// the dial address plus a matching prover endpoint.
func startGateway(t *testing.T, opts []server.Option, names ...string) (*server.Gateway, string, *remote.ProverEndpoint) {
	t.Helper()
	g := server.New(opts...)
	ep := remote.NewProverEndpoint()
	for _, n := range names {
		f := fixture(t, n)
		g.Register(n, core.NewVerifier(f.link, f.key))
		f.provision(ep, 0)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- g.Serve(ln) }()
	t.Cleanup(func() {
		if err := g.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return g, ln.Addr().String(), ep
}

// attest runs one batch attestation session through the unified client
// API (remote.Client).
func attestApp(ep *remote.ProverEndpoint, conn io.ReadWriter, app string) (remote.GatewayVerdict, error) {
	return remote.NewClient(ep).Attest(conn, app)
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// waitStats polls the gateway until pred holds or the deadline passes.
func waitStats(t *testing.T, g *server.Gateway, pred func(server.Stats) bool) server.Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := g.Snapshot()
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats condition not reached; last: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestGatewayRoundTrip(t *testing.T) {
	g, addr, ep := startGateway(t, nil, "prime")
	gv, err := attestApp(ep, dial(t, addr), "prime")
	if err != nil {
		t.Fatal(err)
	}
	if !gv.OK {
		t.Fatalf("verdict: %s", gv.Reason())
	}
	st := waitStats(t, g, func(s server.Stats) bool { return s.VerdictOK == 1 })
	if st.SessionsAccepted != 1 || st.SessionsFailed != 0 || st.Verifications != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.BytesIn == 0 || st.BytesOut == 0 {
		t.Errorf("byte counters not moving: %+v", st)
	}
}

func TestGatewayUnknownApp(t *testing.T) {
	g, addr, ep := startGateway(t, nil, "prime")
	_, err := attestApp(ep, dial(t, addr), "nonexistent")
	if err == nil || !strings.Contains(err.Error(), "unknown application") {
		t.Fatalf("err = %v", err)
	}
	st := waitStats(t, g, func(s server.Stats) bool { return s.SessionsFailed == 1 })
	if st.VerdictOK != 0 || st.VerdictAttack != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestGatewayDetectsMismatchedImage drives a prover whose firmware was
// linked differently from the gateway's golden image: the session itself
// completes, but H_MEM disagrees, so the verdict — not the transport —
// reports the compromise, and the attack counter moves.
func TestGatewayDetectsMismatchedImage(t *testing.T) {
	f := fixture(t, "prime")
	g, addr, _ := startGateway(t, nil, "prime")

	opts := core.DefaultLinkOptions()
	opts.NopPad++ // a differently-linked (here: repadded) firmware image
	otherLink, err := core.LinkForCFA(f.app.Build(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ep := remote.NewProverEndpoint()
	ep.Provision("prime", func() (*core.Prover, error) {
		return core.NewProver(otherLink, f.key, core.ProverConfig{SetupMem: f.app.SetupMem()})
	})

	gv, err := attestApp(ep, dial(t, addr), "prime")
	if err != nil {
		t.Fatal(err)
	}
	if gv.OK || !strings.Contains(gv.Reason(), "H_MEM") {
		t.Fatalf("verdict = %+v", gv)
	}
	st := waitStats(t, g, func(s server.Stats) bool { return s.VerdictAttack == 1 })
	if st.SessionsFailed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestGatewayShedsAtCapacity pins the single session slot with a client
// that holds its session open, then asserts a second client is shed with
// BUSY (remote.ErrBusy) and that the slot serves again once freed.
func TestGatewayShedsAtCapacity(t *testing.T) {
	g, addr, ep := startGateway(t, []server.Option{
		server.WithSessionSlots(1),
		server.WithTimeouts(5*time.Second, 2*time.Second),
	}, "prime")

	// Occupy the only slot: handshake past HELO and hold before reports.
	holder := dial(t, addr)
	if err := remote.WriteFrame(holder, remote.FrameHello, remote.EncodeHello("prime")); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := remote.ReadFrame(holder); err != nil || typ != remote.FrameChal {
		t.Fatalf("holder challenge: type %d, err %v", typ, err)
	}

	// Shed: the gateway is provably inside the holder's session now.
	_, err := attestApp(ep, dial(t, addr), "prime")
	if !errors.Is(err, remote.ErrBusy) {
		t.Fatalf("errors.Is(err, remote.ErrBusy) = false; err = %v", err)
	}
	st := g.Snapshot()
	if st.SessionsRejected != 1 || st.ActiveSessions != 1 {
		t.Errorf("stats = %+v", st)
	}

	// Free the slot; a new session must succeed (the shed was graceful,
	// nothing wedged).
	holder.Close()
	waitStats(t, g, func(s server.Stats) bool { return s.ActiveSessions == 0 })
	gv, err := attestApp(ep, dial(t, addr), "prime")
	if err != nil || !gv.OK {
		t.Fatalf("post-shed session: %+v, %v", gv, err)
	}
}

// TestGatewayStalledClientTimesOut connects a client that goes silent
// after the handshake: the per-I/O deadline must fail the session and
// free its slot for others.
func TestGatewayStalledClientTimesOut(t *testing.T) {
	g, addr, ep := startGateway(t, []server.Option{
		server.WithSessionSlots(1),
		server.WithTimeouts(10*time.Second, 150*time.Millisecond),
	}, "prime")

	staller := dial(t, addr)
	if err := remote.WriteFrame(staller, remote.FrameHello, remote.EncodeHello("prime")); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := remote.ReadFrame(staller); err != nil || typ != remote.FrameChal {
		t.Fatalf("challenge: type %d, err %v", typ, err)
	}
	// ... and now say nothing.

	start := time.Now()
	st := waitStats(t, g, func(s server.Stats) bool { return s.SessionsFailed == 1 })
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("stall detection took %v", waited)
	}
	if st.ActiveSessions != 0 {
		t.Errorf("slot not freed: %+v", st)
	}

	// The sole slot must be available again.
	gv, err := attestApp(ep, dial(t, addr), "prime")
	if err != nil || !gv.OK {
		t.Fatalf("post-stall session: %+v, %v", gv, err)
	}
}

// TestGatewaySessionDeadlineCapsDribble defeats the slow-loris variant: a
// client dribbling single bytes keeps every per-I/O deadline fresh, so
// only the overall session deadline can end it.
func TestGatewaySessionDeadlineCapsDribble(t *testing.T) {
	g, addr, _ := startGateway(t, []server.Option{
		server.WithSessionSlots(1),
		server.WithTimeouts(300*time.Millisecond, 10*time.Second),
	}, "prime")

	dribbler := dial(t, addr)
	if err := remote.WriteFrame(dribbler, remote.FrameHello, remote.EncodeHello("prime")); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := remote.ReadFrame(dribbler); err != nil || typ != remote.FrameChal {
		t.Fatalf("challenge: type %d, err %v", typ, err)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		// A valid-looking report frame header, then one payload byte at a
		// time, forever.
		_, _ = dribbler.Write([]byte{remote.FrameRprt, 0xff, 0xff, 0x0f, 0x00})
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			if _, err := dribbler.Write([]byte{0x00}); err != nil {
				return
			}
		}
	}()

	start := time.Now()
	waitStats(t, g, func(s server.Stats) bool { return s.SessionsFailed == 1 && s.ActiveSessions == 0 })
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("dribbler survived %v past the 300ms session deadline", waited)
	}
}

func TestGatewayServeAfterCloseFails(t *testing.T) {
	g := server.New()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := g.Serve(ln); !errors.Is(err, server.ErrClosed) {
		t.Fatalf("Serve on closed gateway: %v", err)
	}
}

// TestGatewayServeConnShedsAtCapacity holds the only slot and sends a
// second session through ServeConn over a synchronous net.Pipe: the
// gateway must read the HELO before answering BUSY, or its BUSY write and
// the client's HELO write block each other until the I/O timeout.
func TestGatewayServeConnShedsAtCapacity(t *testing.T) {
	f := fixture(t, "prime")
	g := server.New(server.WithSessionSlots(1), server.WithTimeouts(10*time.Second, 3*time.Second))
	g.Register("prime", core.NewVerifier(f.link, f.key))
	defer g.Close()
	ep := remote.NewProverEndpoint()
	f.provision(ep, 0)
	serve := func() (net.Conn, <-chan error) {
		cc, sc := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- g.ServeConn(sc) }()
		return cc, done
	}

	holder, holderDone := serve()
	if err := remote.WriteFrame(holder, remote.FrameHello, remote.EncodeHello("prime")); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := remote.ReadFrame(holder); err != nil || typ != remote.FrameChal {
		t.Fatalf("holder challenge: type %d, err %v", typ, err)
	}

	cc, done := serve()
	_ = cc.SetDeadline(time.Now().Add(time.Second))
	_, err := attestApp(ep, cc, "prime")
	cc.Close()
	if !errors.Is(err, remote.ErrBusy) {
		t.Fatalf("errors.Is(err, remote.ErrBusy) = false; err = %v", err)
	}
	if err := <-done; err != nil {
		t.Errorf("ServeConn: %v", err)
	}
	if st := g.Snapshot(); st.SessionsRejected != 1 || st.ActiveSessions != 1 {
		t.Errorf("stats = %+v", st)
	}
	holder.Close()
	<-holderDone
}

func TestGatewayServeConnAfterCloseFails(t *testing.T) {
	g := server.New()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	cc, sc := net.Pipe()
	defer cc.Close()
	if err := g.ServeConn(sc); !errors.Is(err, server.ErrClosed) {
		t.Fatalf("ServeConn on closed gateway: %v", err)
	}
	if _, err := cc.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Errorf("connection not dropped: read err = %v", err)
	}
}

func TestStatsString(t *testing.T) {
	g, addr, ep := startGateway(t, nil, "prime")
	if _, err := attestApp(ep, dial(t, addr), "prime"); err != nil {
		t.Fatal(err)
	}
	st := waitStats(t, g, func(s server.Stats) bool { return s.Verifications == 1 })
	out := st.String()
	for _, want := range []string{"sessions:", "verdicts:", "traffic:", "verify latency:", "+inf"} {
		if !strings.Contains(out, want) {
			t.Errorf("Stats.String() missing %q:\n%s", want, out)
		}
	}
	var histTotal uint64
	for _, hb := range st.VerifyHist {
		histTotal += hb.Count
	}
	if histTotal != st.Verifications {
		t.Errorf("histogram total %d != verifications %d", histTotal, st.Verifications)
	}
}

// TestGatewayBackpressureQueue saturates a one-worker pool and asserts
// every queued session still completes correctly: backpressure delays,
// it does not drop.
func TestGatewayBackpressureQueue(t *testing.T) {
	g, addr, ep := startGateway(t, []server.Option{
		server.WithSessionSlots(8),
		server.WithVerifyWorkers(1, 1),
	}, "prime")

	const n = 6
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			gv, err := attestApp(ep, conn, "prime")
			if err != nil {
				errs <- err
				return
			}
			if !gv.OK {
				errs <- fmt.Errorf("verdict: %s", gv.Reason())
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := g.Snapshot()
	if st.VerdictOK != n || st.Verifications != n {
		t.Errorf("stats = %+v", st)
	}
}

// TestGatewayFastPath runs several sequential sessions of the same app and
// asserts the cross-session fast path engages: the verdict cache records
// hits, the first accepted session triggers a mining pass, and promoted
// sub-paths show up in the live dictionary — with every verdict still OK.
func TestGatewayFastPath(t *testing.T) {
	g, addr, ep := startGateway(t, []server.Option{server.WithMining(2, 0, 0)}, "prime")

	const sessions = 4
	for i := 0; i < sessions; i++ {
		gv, err := attestApp(ep, dial(t, addr), "prime")
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if !gv.OK {
			t.Fatalf("session %d verdict: %s", i, gv.Reason())
		}
	}

	st := waitStats(t, g, func(s server.Stats) bool { return s.VerdictOK == sessions })
	if st.CacheHits == 0 {
		t.Errorf("no cache hits across %d identical sessions: %+v", sessions, st)
	}
	if st.CacheEntries == 0 || st.CacheBytes == 0 {
		t.Errorf("cache empty after %d sessions: %+v", sessions, st)
	}
	if st.MinedSessions == 0 {
		t.Errorf("no mining pass ran: %+v", st)
	}
	if st.DictPromotions == 0 || st.DictPaths == 0 {
		t.Errorf("no dictionary promotion: %+v", st)
	}
}

// TestGatewayFastPathDisabled: CacheBytes/MineEvery < 0 turn both halves
// of the fast path off; sessions still verify.
func TestGatewayFastPathDisabled(t *testing.T) {
	g, addr, ep := startGateway(t, []server.Option{server.WithCache(-1), server.WithMining(-1, 0, 0)}, "prime")
	for i := 0; i < 2; i++ {
		gv, err := attestApp(ep, dial(t, addr), "prime")
		if err != nil {
			t.Fatal(err)
		}
		if !gv.OK {
			t.Fatalf("verdict: %s", gv.Reason())
		}
	}
	st := waitStats(t, g, func(s server.Stats) bool { return s.VerdictOK == 2 })
	if st.CacheHits != 0 || st.CacheMisses != 0 || st.CacheEntries != 0 {
		t.Errorf("cache active despite CacheBytes<0: %+v", st)
	}
	if st.MinedSessions != 0 || st.DictPromotions != 0 || st.DictPaths != 0 {
		t.Errorf("mining active despite MineEvery<0: %+v", st)
	}
}

// TestGatewayRejectionBuckets: an H_MEM-mismatched prover lands in the
// typed rejection bucket, not just the aggregate attack counter.
func TestGatewayRejectionBuckets(t *testing.T) {
	f := fixture(t, "prime")
	g, addr, _ := startGateway(t, nil, "prime")

	opts := core.DefaultLinkOptions()
	opts.NopPad++
	otherLink, err := core.LinkForCFA(f.app.Build(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ep := remote.NewProverEndpoint()
	ep.Provision("prime", func() (*core.Prover, error) {
		return core.NewProver(otherLink, f.key, core.ProverConfig{SetupMem: f.app.SetupMem()})
	})

	gv, err := attestApp(ep, dial(t, addr), "prime")
	if err != nil {
		t.Fatal(err)
	}
	if gv.OK || gv.Code != verify.ReasonHMemMismatch {
		t.Fatalf("verdict = %+v", gv)
	}
	st := waitStats(t, g, func(s server.Stats) bool { return s.VerdictAttack == 1 })
	if st.Rejections[verify.ReasonHMemMismatch] != 1 {
		t.Errorf("rejection buckets = %v", st.Rejections)
	}
	if strings.Count(st.String(), "h-mem-mismatch") == 0 {
		t.Errorf("String() missing bucket line:\n%s", st.String())
	}
}
