package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"raptrack/internal/apps"
	"raptrack/internal/attest"
	"raptrack/internal/core"
	"raptrack/internal/linker"
	"raptrack/internal/remote"
	"raptrack/internal/server"
	"raptrack/internal/speccfa"
)

// appSpec is one provisioned application: golden link artifact plus the
// fleet's shared HMAC key. Linking runs once per app at startup — the
// expensive part — and every simulated device of that app shares it,
// exactly as a firmware image is shared by a device fleet.
type appSpec struct {
	name string
	link *linker.Output
	key  *attest.HMACKey
	app  apps.App
}

func loadApp(name string) (*appSpec, error) {
	a, err := apps.Get(name)
	if err != nil {
		return nil, err
	}
	link, err := core.LinkForCFA(a.Build(), core.DefaultLinkOptions())
	if err != nil {
		return nil, fmt.Errorf("linking %s: %w", name, err)
	}
	key, err := attest.GenerateHMACKey()
	if err != nil {
		return nil, err
	}
	return &appSpec{name: name, link: link, key: key, app: a}, nil
}

// newGateway builds a gateway serving every app.
func newGateway(specs []*appSpec, opts ...server.Option) *server.Gateway {
	g := server.New(opts...)
	for _, s := range specs {
		g.Register(s.name, core.NewVerifier(s.link, s.key))
	}
	return g
}

// --- template provers -------------------------------------------------
//
// A fleet simulator cannot afford a full attested execution per session:
// one commodity-CPU core runs the *verifier* side at thousands of
// sessions per second, but a simulated MCU run costs milliseconds of
// host CPU, which would make the load generator — not the plane under
// test — the bottleneck. The RoT's report format makes a cheaper honest
// device possible: reports authenticate (App, Nonce, Seq, Final, loss
// counters, H_MEM, CFLog) individually under the device key, and the
// control-flow evidence of a deterministic firmware run does not depend
// on the challenge nonce. So the simulator records ONE real attested
// run per (app, session-dictionary) — the dictionary changes which
// compressed CFLog bytes ship — and each session replays the recorded
// report chain with the fresh nonce substituted and every report
// re-signed. The gateway sees byte-exact honest evidence and performs
// full authentication, expansion, and verification work per session.

// template is one recorded report chain.
type template struct {
	reports []*attest.Report
}

// templateKey identifies a recording: app plus the session dictionary
// payload hash (empty payload = no DICT frame).
func templateKey(app string, dictPayload []byte) string {
	sum := sha256.Sum256(dictPayload)
	return app + "\x00" + string(sum[:])
}

// templateStore builds and caches templates. A cold (app, dict) pair —
// startup, or the first session after a fleet dictionary epoch — pays
// one real attested run; every other session is clone+re-sign.
type templateStore struct {
	mu    sync.Mutex
	specs map[string]*appSpec
	cache map[string]*template
}

func newTemplateStore(specs []*appSpec) *templateStore {
	m := make(map[string]*appSpec, len(specs))
	for _, s := range specs {
		m[s.name] = s
	}
	return &templateStore{specs: m, cache: make(map[string]*template)}
}

func (ts *templateStore) get(app string, dictPayload []byte) (*template, error) {
	key := templateKey(app, dictPayload)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if tpl, ok := ts.cache[key]; ok {
		return tpl, nil
	}
	spec, ok := ts.specs[app]
	if !ok {
		return nil, fmt.Errorf("fleetsim: no spec for app %q", app)
	}
	tpl, err := record(spec, dictPayload)
	if err != nil {
		return nil, err
	}
	ts.cache[key] = tpl
	return tpl, nil
}

// record runs one real attested execution and keeps the report chain.
func record(spec *appSpec, dictPayload []byte) (*template, error) {
	prover, err := core.NewProver(spec.link, spec.key, core.ProverConfig{
		SetupMem: spec.app.SetupMem(),
		MaxSteps: spec.app.MaxSteps,
	})
	if err != nil {
		return nil, err
	}
	if len(dictPayload) > 0 {
		dict, err := speccfa.DecodeDictionary(dictPayload)
		if err != nil {
			return nil, fmt.Errorf("fleetsim: decoding session dictionary: %w", err)
		}
		if err := prover.Engine.SetSpeculation(dict); err != nil {
			return nil, err
		}
	}
	chal, err := attest.NewChallenge(spec.name)
	if err != nil {
		return nil, err
	}
	reports, _, err := prover.Attest(chal)
	if err != nil {
		return nil, err
	}
	if len(reports) == 0 {
		return nil, errors.New("fleetsim: attested run produced no reports")
	}
	tpl := &template{reports: make([]*attest.Report, 0, len(reports))}
	for _, r := range reports {
		// Decouple from any engine-owned buffers via the codec.
		rr, err := attest.DecodeReport(r.Encode())
		if err != nil {
			return nil, err
		}
		tpl.reports = append(tpl.reports, rr)
	}
	return tpl, nil
}

// attest drives one gateway session on conn using template playback.
func (ts *templateStore) attest(conn io.ReadWriter, app, device string) (remote.GatewayVerdict, error) {
	var gv remote.GatewayVerdict
	if err := remote.WriteFrame(conn, remote.FrameHello, remote.EncodeHelloID(app, device)); err != nil {
		return gv, err
	}
	typ, payload, err := remote.ReadFrame(conn)
	if err != nil {
		return gv, err
	}
	var dictPayload []byte
	if typ == remote.FrameDict {
		dictPayload = payload
		if typ, payload, err = remote.ReadFrame(conn); err != nil {
			return gv, err
		}
	}
	switch typ {
	case remote.FrameChal:
	case remote.FrameBusy:
		ra, _ := remote.ParseBusy(payload)
		return gv, &remote.BusyError{RetryAfter: ra}
	case remote.FrameFail:
		return gv, fmt.Errorf("fleetsim: gateway failed session: %s", payload)
	default:
		return gv, fmt.Errorf("fleetsim: expected challenge, got frame type %d", typ)
	}
	chal, err := attest.DecodeChallenge(payload)
	if err != nil {
		return gv, err
	}
	tpl, err := ts.get(app, dictPayload)
	if err != nil {
		return gv, err
	}
	spec := ts.specs[app]
	for _, r := range tpl.reports {
		rr := *r
		rr.Nonce = chal.Nonce
		rr.Auth = nil
		if err := attest.SignReport(&rr, spec.key); err != nil {
			return gv, err
		}
		if err := remote.WriteFrame(conn, remote.FrameRprt, rr.Encode()); err != nil {
			return gv, err
		}
	}
	typ, payload, err = remote.ReadFrame(conn)
	if err != nil {
		return gv, err
	}
	switch typ {
	case remote.FrameVerdict:
		return remote.DecodeVerdict(payload)
	case remote.FrameFail:
		return gv, fmt.Errorf("fleetsim: gateway failed session: %s", payload)
	default:
		return gv, fmt.Errorf("fleetsim: expected verdict, got frame type %d", typ)
	}
}

// --- simulated device links -------------------------------------------

// slowConn models the device's link: each protocol round trip pays the
// link latency once, when the device turns from reading to writing (its
// first write included), however many writes its side of the exchange
// takes. The gateway session holds its slot while waiting, so sessions
// are link-bound: capacity is the slot count, while the per-session CPU
// work stays far below one core. A session's total delay is its round
// trips times lat: HELO→CHAL and REPORTS→VRDT.
type slowConn struct {
	net.Conn
	lat     time.Duration
	writing bool          // the device's last operation was a write
	delay   time.Duration // link latency charged so far
}

func (c *slowConn) Write(p []byte) (int, error) {
	if !c.writing {
		c.writing = true
		c.delay += c.lat
		time.Sleep(c.lat)
	}
	return c.Conn.Write(p)
}

func (c *slowConn) Read(p []byte) (int, error) {
	c.writing = false
	return c.Conn.Read(p)
}

// device is one simulated prover.
type device struct {
	id        string
	app       string
	latency   time.Duration
	straggler bool
}

// buildFleet deals provers across apps with a deterministic straggler
// share on 4x-latency lossy links.
func buildFleet(n int, specs []*appSpec, baseLat time.Duration, stragglerPct int, rng *rand.Rand) []*device {
	fleet := make([]*device, n)
	for i := range fleet {
		d := &device{
			id:      fmt.Sprintf("device-%06d", i),
			app:     specs[i%len(specs)].name,
			latency: baseLat + time.Duration(rng.Int63n(int64(baseLat))), // [base, 2*base)
		}
		if rng.Intn(100) < stragglerPct {
			d.straggler = true
			d.latency *= 4
		}
		fleet[i] = d
	}
	return fleet
}

// dialGateway opens one in-process session against gw: the gateway
// serves its end of a pipe while the device speaks on a latency-shaped
// client end.
func dialGateway(gw *server.Gateway, d *device) (net.Conn, <-chan struct{}) {
	cc, sc := net.Pipe()
	done := make(chan struct{})
	go func() {
		_ = gw.ServeConn(sc)
		close(done)
	}()
	return &slowConn{Conn: cc, lat: d.latency}, done
}

// sessionResult is one completed device session.
type sessionResult struct {
	ok      bool
	err     error // set only when no attempt reached a verdict
	busy    int
	latency time.Duration // first attempt start -> final outcome
}

// retryProfile shapes a device's retry loop. Backoff grows linearly per
// attempt on top of the gateway's retry-after hint, capped, with a
// deterministic per-device jitter so a thundering herd decorrelates
// without a shared RNG.
type retryProfile struct {
	maxAttempts int
	backoffStep time.Duration // added per prior BUSY attempt
	backoffCap  time.Duration
}

func (p retryProfile) sleep(d *device, attempt int, hint time.Duration) time.Duration {
	// Sanitize the gateway's hint like real device firmware would: on a
	// lossy link a bit flip in the BUSY frame's u32 milliseconds field
	// can ask for a 2^31 ms (= 24-day) pause. The clamp itself lives in
	// remote.ClampBusyHint so every hint consumer shares one ceiling.
	if hint = remote.ClampBusyHint(hint); hint == 0 {
		hint = 5 * time.Millisecond
	}
	back := time.Duration(attempt) * p.backoffStep
	if back > p.backoffCap {
		back = p.backoffCap
	}
	var jitter time.Duration
	if back > 0 {
		h := keyHashJitter(d.id, attempt)
		jitter = time.Duration(h % uint64(back))
	}
	return hint + back/2 + jitter/2
}

// keyHashJitter derives a stable pseudo-random value from (device,
// attempt) without touching a shared RNG.
func keyHashJitter(id string, attempt int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * 1099511628211
	}
	return (h ^ uint64(attempt)) * 1099511628211
}

// runSession attests d against gw with BUSY-aware retry (the template
// path cannot use remote.Client.AttestDial, which builds real provers).
func runSession(gw *server.Gateway, ts *templateStore, d *device, wrap func(net.Conn) io.ReadWriter, prof retryProfile) sessionResult {
	start := time.Now()
	res := sessionResult{}
	for attempt := 1; attempt <= prof.maxAttempts; attempt++ {
		conn, done := dialGateway(gw, d)
		var c io.ReadWriter = conn
		if wrap != nil {
			c = wrap(conn)
		}
		gv, err := ts.attest(c, d.app, d.id)
		conn.Close()
		<-done
		if err == nil {
			// A verdict supersedes the errors of earlier attempts.
			res.ok, res.err = gv.OK, nil
			res.latency = time.Since(start)
			return res
		}
		var busy *remote.BusyError
		if errors.As(err, &busy) {
			res.busy++
			time.Sleep(prof.sleep(d, attempt, busy.RetryAfter))
			continue
		}
		// Wire faults on straggler links surface as protocol errors;
		// retry a bounded number of times like a real device loop.
		time.Sleep(2 * time.Millisecond)
		res.err = err
	}
	res.latency = time.Since(start)
	if res.err == nil && res.busy > 0 {
		res.err = errors.New("fleetsim: retry budget exhausted on BUSY")
	}
	return res
}

// quantiles returns the p50 and p99 of ds (ms) — nil-safe.
func quantiles(ds []time.Duration) (p50, p99 float64) {
	if len(ds) == 0 {
		return 0, 0
	}
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	at := func(q float64) float64 {
		i := int(q * float64(len(ms)-1))
		return ms[i]
	}
	return at(0.50), at(0.99)
}
