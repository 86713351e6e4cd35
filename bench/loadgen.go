package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"raptrack/internal/attest"
	"raptrack/internal/remote"
	"raptrack/internal/verify"
)

// result is one session as the generator saw it.
type result struct {
	job   job
	start time.Time // session clock origin: due time (open loop) or dial
	late  time.Duration
	end   time.Time // verdict read
	ok    bool      // verdict accepted
	code  verify.ReasonCode
	err   error
	busy  bool // shed with BUSY
	// detect is the time from writing the hijacked SLICE to reading the
	// first HEAL (stream hijacks that drew one).
	detect time.Duration
}

func (r result) latency() time.Duration { return r.end.Sub(r.start) }

// attackVerdict is the outcome every hijacked session must get: a
// delivered rejection that is neither inconclusive nor an error.
func (r result) attackVerdict() bool {
	return r.err == nil && !r.ok && r.code != verify.ReasonInconclusive
}

// correct reports whether the session got the verdict its evidence
// deserves: accept for honest, an attack verdict for hijacked.
func (r result) correct() bool {
	if r.job.hijack {
		return r.attackVerdict()
	}
	return r.err == nil && r.ok
}

// evidence is how the generator produces a session's report chain.
type evidence interface {
	// chain returns the unsigned template chain for j, given the DICT
	// payload the gateway served (nil when none).
	chain(j job, dict []byte) ([]*attest.Report, error)
}

// templateEvidence replays one recording per (app, DICT payload).
type templateEvidence struct{ t *templates }

func (e templateEvidence) chain(j job, dict []byte) ([]*attest.Report, error) {
	return e.t.get(j.app, dict)
}

// poolEvidence cycles each app's pool of distinct runs. It ignores the
// DICT frame and ships uncompressed evidence, which the gateway accepts
// under any live dictionary.
type poolEvidence struct{ pools map[string][][]*attest.Report }

func (e poolEvidence) chain(j job, _ []byte) ([]*attest.Report, error) {
	p := e.pools[j.app]
	if len(p) == 0 {
		return nil, fmt.Errorf("no pool for %s", j.app)
	}
	return p[j.pool%len(p)], nil
}

// placeHijack resolves a job's position onto a concrete chain: the
// packet at fraction j.at of the eligible packets — those of reports
// holding a whole packet, interior slices only when streamed, so the
// alarm must come mid-run.
func placeHijack(j job, chain []*attest.Report, stream bool) (*hijack, error) {
	eligible := func(i int) bool {
		return len(chain[i].CFLog) >= 8 && (!stream || (i > 0 && i < len(chain)-1))
	}
	total := 0
	for i, r := range chain {
		if eligible(i) {
			total += len(r.CFLog) / 8
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("%s: no report can carry a hijack", j.app)
	}
	k := min(int(j.at*float64(total)), total-1)
	for i, r := range chain {
		if !eligible(i) {
			continue
		}
		if n := len(r.CFLog) / 8; k >= n {
			k -= n
			continue
		}
		return &hijack{report: i, packet: k, gadget: gadgetFor(j.seq)}, nil
	}
	panic("unreachable: k < total")
}

// client drives sessions against one gateway address.
type client struct {
	addr     string
	w        *workload
	ev       evidence
	specs    map[string]*appSpec
	lastDict sync.Map // app -> []byte: the DICT payload most recently served
}

// errNotDispatched marks an open-loop session the generator could not
// start before giving up on an overloaded gateway.
var errNotDispatched = errors.New("session never dispatched: the gateway fell too far behind the arrival schedule")

// readTimeout bounds any single session; a gateway that stalls past it
// fails the session rather than hanging the benchmark.
const readTimeout = 60 * time.Second

// run drives one session. start is its clock origin.
func (c *client) run(j job, start time.Time) (res result) {
	res = result{job: j, start: start}
	defer func() {
		if res.end.IsZero() {
			res.end = time.Now()
		}
	}()
	conn, err := net.DialTimeout("tcp", c.addr, 10*time.Second)
	if err != nil {
		res.err = err
		return res
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(readTimeout))
	br := bufio.NewReaderSize(conn, 4096)
	if _, err := conn.Write(appendFrame(nil, remote.FrameHello, remote.EncodeHelloID(j.app, j.device))); err != nil {
		res.err = err
		return res
	}
	typ, payload, err := remote.ReadFrame(br)
	if err != nil {
		res.err = fmt.Errorf("reading challenge: %w", err)
		return res
	}
	var dict []byte
	if typ == remote.FrameDict {
		dict = payload
		c.lastDict.Store(j.app, dict)
		if typ, payload, err = remote.ReadFrame(br); err != nil {
			res.err = fmt.Errorf("reading challenge: %w", err)
			return res
		}
	}
	switch typ {
	case remote.FrameChal:
	case remote.FrameBusy:
		res.busy = true
		res.err = remote.ErrBusy
		return res
	case remote.FrameFail:
		res.err = fmt.Errorf("gateway failed session: %s", payload)
		return res
	default:
		res.err = fmt.Errorf("expected challenge, got frame type %d", typ)
		return res
	}
	chal, err := attest.DecodeChallenge(payload)
	if err != nil {
		res.err = err
		return res
	}
	tpl, err := c.ev.chain(j, dict)
	if err != nil {
		res.err = err
		return res
	}
	var hj *hijack
	if j.hijack {
		if hj, err = placeHijack(j, tpl, c.w.streamWatermark > 0); err != nil {
			res.err = err
			return res
		}
	}
	reports, err := signed(tpl, c.specs[j.app].key, chal.Nonce, hj)
	if err != nil {
		res.err = err
		return res
	}
	var gv remote.GatewayVerdict
	if c.w.streamWatermark > 0 {
		gv, err = c.stream(conn, br, chal, reports, hj, &res)
	} else {
		gv, err = c.batch(conn, br, reports)
	}
	if err != nil {
		res.err = err
		return res
	}
	res.ok, res.code = gv.OK, gv.Code
	res.end = time.Now()
	// The gateway hangs up first after its verdict; waiting for that keeps
	// TIME_WAIT sockets on its side instead of exhausting our ports.
	_, _ = io.Copy(io.Discard, br)
	return res
}

// batch sends the whole report chain and reads the verdict.
func (c *client) batch(conn net.Conn, br *bufio.Reader, reports []*attest.Report) (remote.GatewayVerdict, error) {
	if _, err := conn.Write(rprtFrames(reports)); err != nil {
		return remote.GatewayVerdict{}, fmt.Errorf("sending reports: %w", err)
	}
	return readVerdict(br, nil)
}

// stream sends the chain as SLICE frames and acknowledges every HEAL
// directive while it waits for the verdict. The hijacked slice is
// written on its own, so detection latency is timed from its write.
func (c *client) stream(conn net.Conn, br *bufio.Reader, chal attest.Challenge, reports []*attest.Report, hj *hijack, res *result) (remote.GatewayVerdict, error) {
	frames := sliceFrames(chal.Nonce, reports)
	var (
		wmu       sync.Mutex
		hijackAt  time.Time
		firstHeal time.Time
	)
	write := func(parts ...[]byte) error {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		if len(b) == 0 {
			return nil
		}
		wmu.Lock()
		defer wmu.Unlock()
		_, err := conn.Write(b)
		return err
	}
	type outcome struct {
		gv  remote.GatewayVerdict
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		gv, err := readVerdict(br, func(h remote.Heal) error {
			if firstHeal.IsZero() {
				firstHeal = time.Now()
			}
			return write(appendFrame(nil, remote.FrameHealAck, remote.EncodeHealAck(h)))
		})
		done <- outcome{gv, err}
	}()
	var werr error
	if hj == nil {
		werr = write(frames...)
	} else {
		werr = write(frames[:hj.report]...)
		if werr == nil {
			hijackAt = time.Now()
			werr = write(frames[hj.report])
		}
		if werr == nil {
			werr = write(frames[hj.report+1:]...)
		}
	}
	out := <-done
	if out.err != nil {
		if werr != nil {
			return out.gv, fmt.Errorf("%w (sending slices: %v)", out.err, werr)
		}
		return out.gv, out.err
	}
	// A delivered verdict settles the session even if a late slice write
	// raced the gateway's early cut, so werr no longer matters.
	if hj != nil && !firstHeal.IsZero() {
		res.detect = firstHeal.Sub(hijackAt)
	}
	return out.gv, nil
}

// readVerdict reads frames until the VRDT, handing HEAL directives to
// onHeal (nil: a HEAL is a protocol error).
func readVerdict(br *bufio.Reader, onHeal func(remote.Heal) error) (remote.GatewayVerdict, error) {
	for {
		typ, payload, err := remote.ReadFrame(br)
		if err != nil {
			return remote.GatewayVerdict{}, fmt.Errorf("reading verdict: %w", err)
		}
		switch {
		case typ == remote.FrameVerdict:
			return remote.DecodeVerdict(payload)
		case typ == remote.FrameHeal && onHeal != nil:
			h, err := remote.DecodeHeal(payload)
			if err != nil {
				return remote.GatewayVerdict{}, err
			}
			if err := onHeal(h); err != nil {
				return remote.GatewayVerdict{}, fmt.Errorf("acknowledging heal: %w", err)
			}
		case typ == remote.FrameFail:
			return remote.GatewayVerdict{}, fmt.Errorf("gateway failed session: %s", payload)
		default:
			return remote.GatewayVerdict{}, fmt.Errorf("unexpected frame type %d awaiting verdict", typ)
		}
	}
}

// load runs a workload's session sequence against the gateway from
// time.Now() until stop, over w.inFlight connections at most, and
// returns every session started. Open-loop sessions start at their due
// times (waiting for a free connection when both are busy); closed-loop
// connections start the next session as soon as the previous verdict
// lands.
func (c *client) load(gen *jobGen, stop time.Time) []result {
	var (
		mu      sync.Mutex
		results []result
		wg      sync.WaitGroup
	)
	add := func(r result) {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	}
	origin := time.Now()
	if c.w.rate == 0 {
		var genMu sync.Mutex
		for i := 0; i < c.w.inFlight; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(stop) {
					genMu.Lock()
					j := gen.next()
					genMu.Unlock()
					add(c.run(j, time.Now()))
				}
			}()
		}
		wg.Wait()
		return results
	}
	type dispatch struct {
		j   job
		due time.Time
	}
	ch := make(chan dispatch)
	for i := 0; i < c.w.inFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range ch {
				late := time.Since(d.due)
				r := c.run(d.j, d.due)
				r.late = late
				add(r)
			}
		}()
	}
	// An overloaded gateway falls behind the schedule. Sessions still
	// undispatched once the drain has run as long as the load itself are
	// recorded as failures instead of letting the drain run on unbounded.
	giveUp := stop.Add(stop.Sub(origin))
	for {
		j := gen.next()
		due := origin.Add(j.due)
		if !due.Before(stop) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if time.Now().After(giveUp) {
			add(result{job: j, start: due, end: time.Now(), err: errNotDispatched})
			continue
		}
		ch <- dispatch{j, due}
	}
	close(ch)
	wg.Wait()
	return results
}
