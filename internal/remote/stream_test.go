package remote

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"raptrack/internal/attest"
)

// testReport builds a deterministic report for frame-level tests (the
// authenticator is arbitrary bytes — frame codecs never verify it).
func testReport(seq uint32, final bool) *attest.Report {
	r := &attest.Report{
		App:   "prime",
		Seq:   seq,
		Final: final,
		CFLog: []byte{0x10, 0x00, 0x20, 0x00, 0x40, 0x00, 0x20, 0x00},
		Auth:  bytes.Repeat([]byte{0xA5}, 32),
	}
	for i := range r.Nonce {
		r.Nonce[i] = byte(i)
	}
	for i := range r.HMem {
		r.HMem[i] = byte(0x80 + i)
	}
	return r
}

func TestSliceRoundTrip(t *testing.T) {
	rep := testReport(3, true)
	var nonce [attest.NonceSize]byte
	copy(nonce[:], rep.Nonce[:])
	s := Slice{
		Seq:    3,
		Mark:   0x40,
		Final:  true,
		Tag:    SliceTagNext(SliceTagInit(nonce), rep.Auth),
		Report: rep.Encode(),
	}
	got, err := DecodeSlice(EncodeSlice(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != s.Seq || got.Mark != s.Mark || !got.Final || got.Tag != s.Tag {
		t.Errorf("envelope drifted: got %+v", got)
	}
	if !bytes.Equal(got.Report, s.Report) {
		t.Error("wrapped report bytes drifted")
	}
	if rp, err := attest.DecodeReport(got.Report); err != nil || rp.Seq != 3 || !rp.Final {
		t.Errorf("wrapped report: %+v, %v", rp, err)
	}
}

func TestSliceDecodeMalformed(t *testing.T) {
	if _, err := DecodeSlice(nil); !errors.Is(err, ErrBadSlice) {
		t.Errorf("empty payload: %v", err)
	}
	if _, err := DecodeSlice(make([]byte, sliceHeaderSize+SliceTagSize-1)); !errors.Is(err, ErrBadSlice) {
		t.Errorf("short payload: %v", err)
	}
	b := EncodeSlice(Slice{Final: true})
	b[8] = 7 // non-canonical final flag
	if _, err := DecodeSlice(b); !errors.Is(err, ErrBadSlice) {
		t.Errorf("non-canonical final flag: %v", err)
	}
}

func TestSliceTagChain(t *testing.T) {
	var n1, n2 [attest.NonceSize]byte
	n2[0] = 1
	if SliceTagInit(n1) == SliceTagInit(n2) {
		t.Error("distinct nonces derived the same initial tag")
	}
	t0 := SliceTagInit(n1)
	a := SliceTagNext(t0, []byte("auth-1"))
	b := SliceTagNext(t0, []byte("auth-2"))
	if a == b {
		t.Error("distinct authenticators chained to the same tag")
	}
	// Order sensitivity: swapping two links changes the final tag.
	ab := SliceTagNext(SliceTagNext(t0, []byte("auth-1")), []byte("auth-2"))
	ba := SliceTagNext(SliceTagNext(t0, []byte("auth-2")), []byte("auth-1"))
	if ab == ba {
		t.Error("tag chain is order-insensitive")
	}
}

func TestHealRoundTrip(t *testing.T) {
	for _, h := range []Heal{
		{Directive: HealQuarantine, Seq: 0, Detail: "rop: return destination mismatch"},
		{Directive: HealReprovision, Seq: 7},
		{Directive: HealReattest, Seq: 2, Detail: "trace loss"},
	} {
		got, err := DecodeHeal(EncodeHeal(h))
		if err != nil || got != h {
			t.Errorf("heal round trip: got %+v, %v, want %+v", got, err, h)
		}
		ack, err := DecodeHealAck(EncodeHealAck(h))
		if err != nil || ack.Directive != h.Directive || ack.Seq != h.Seq {
			t.Errorf("ack round trip: got %+v, %v", ack, err)
		}
	}
	if _, err := DecodeHeal([]byte{1, 2}); !errors.Is(err, ErrBadHeal) {
		t.Errorf("short heal: %v", err)
	}
	if _, err := DecodeHeal([]byte{0xEE, 0, 0, 0, 0}); !errors.Is(err, ErrBadHeal) {
		t.Errorf("unknown directive: %v", err)
	}
	if _, err := DecodeHealAck([]byte{1, 0, 0, 0, 0, 9}); !errors.Is(err, ErrBadHeal) {
		t.Errorf("oversized ack: %v", err)
	}
	if _, err := DecodeHealAck([]byte{0, 0, 0, 0, 0}); !errors.Is(err, ErrBadHeal) {
		t.Errorf("zero directive ack: %v", err)
	}
}

// TestClampBusyHint pins the clamp ceiling: hints in (0, MaxBusyHint]
// pass through untouched, everything else — including the ~49-day pause
// a corrupted u32 milliseconds field can encode — collapses to "no
// usable hint".
func TestClampBusyHint(t *testing.T) {
	if MaxBusyHint != 2*time.Second {
		t.Fatalf("MaxBusyHint = %v; changing the ceiling is a behavior change for every deployed prover", MaxBusyHint)
	}
	cases := []struct {
		in, want time.Duration
	}{
		{0, 0},
		{-time.Second, 0},
		{time.Millisecond, time.Millisecond},
		{MaxBusyHint, MaxBusyHint},
		{MaxBusyHint + time.Nanosecond, 0},
		{(1 << 31) * time.Millisecond, 0}, // flipped sign bit on the wire
		{(1<<32 - 1) * time.Millisecond, 0},
	}
	for _, c := range cases {
		if got := ClampBusyHint(c.in); got != c.want {
			t.Errorf("ClampBusyHint(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestDelayDiscardsCorruptHint: a BUSY hint beyond the ceiling must not
// floor the backoff (the old behavior would stall the prover for the
// full corrupted duration).
func TestDelayDiscardsCorruptHint(t *testing.T) {
	pol := RetryPolicy{}.withDefaults()
	pol.Rand = nil // no jitter: exact arithmetic
	d, hinted := pol.delay(1, &BusyError{RetryAfter: (1 << 31) * time.Millisecond})
	if hinted {
		t.Error("corrupted hint was honored")
	}
	if d != pol.BaseDelay {
		t.Errorf("delay = %v, want base %v", d, pol.BaseDelay)
	}
	// A plausible hint still floors the delay.
	d, hinted = pol.delay(1, &BusyError{RetryAfter: 800 * time.Millisecond})
	if !hinted || d != 800*time.Millisecond {
		t.Errorf("plausible hint: delay = %v hinted = %v", d, hinted)
	}
}

// streamGateway scripts the verifier side of one streaming session for
// tests: HELO in, CHAL out, then slices (and HEAL acks) in until the
// final slice lands. It validates the running tag chain and the slice
// sequence as it reads.
type streamGateway struct {
	t       *testing.T
	conn    net.Conn
	healAt  int  // send a HEAL after this many slices (-1: never)
	healGot Heal // the acknowledged directive
	slices  []Slice
	reports []*attest.Report
}

func (g *streamGateway) run(app string) {
	t := g.t
	defer g.conn.Close()
	typ, payload, err := ReadFrame(g.conn)
	if err != nil || typ != FrameHello {
		t.Errorf("gateway: expected HELO, got type %d err %v", typ, err)
		return
	}
	gotApp, _, err := ParseHelloID(payload)
	if err != nil || gotApp != app {
		t.Errorf("gateway: HELO app = %q, %v", gotApp, err)
		return
	}
	chal, err := attest.NewChallenge(app)
	if err != nil {
		t.Error(err)
		return
	}
	if err := WriteFrame(g.conn, FrameChal, chal.Encode()); err != nil {
		t.Error(err)
		return
	}
	tag := SliceTagInit(chal.Nonce)
	healSent := false
	ackSeen := g.healAt < 0
	finalSeen := false
	for !finalSeen || !ackSeen {
		typ, payload, err := ReadFrame(g.conn)
		if err != nil {
			t.Errorf("gateway: reading evidence: %v", err)
			return
		}
		switch typ {
		case FrameSlice:
			sl, err := DecodeSlice(payload)
			if err != nil {
				t.Errorf("gateway: %v", err)
				return
			}
			if int(sl.Seq) != len(g.slices) {
				t.Errorf("gateway: slice seq %d, want %d", sl.Seq, len(g.slices))
			}
			rep, err := attest.DecodeReport(sl.Report)
			if err != nil {
				t.Errorf("gateway: wrapped report: %v", err)
				return
			}
			tag = SliceTagNext(tag, rep.Auth)
			if sl.Tag != tag {
				t.Errorf("gateway: slice %d running tag mismatch", sl.Seq)
			}
			g.slices = append(g.slices, sl)
			g.reports = append(g.reports, rep)
			if sl.Final != rep.Final {
				t.Errorf("gateway: slice %d final bit %v != report final %v", sl.Seq, sl.Final, rep.Final)
			}
			finalSeen = sl.Final
			if !healSent && g.healAt >= 0 && len(g.slices) > g.healAt {
				healSent = true
				h := Heal{Directive: HealReattest, Seq: sl.Seq, Detail: "gateway test directive"}
				if err := WriteFrame(g.conn, FrameHeal, EncodeHeal(h)); err != nil {
					t.Errorf("gateway: sending HEAL: %v", err)
					return
				}
			}
		case FrameHealAck:
			ack, err := DecodeHealAck(payload)
			if err != nil {
				t.Errorf("gateway: %v", err)
				return
			}
			g.healGot = ack
			ackSeen = true
		case FrameFail:
			t.Errorf("gateway: prover FAIL: %s", payload)
			return
		default:
			t.Errorf("gateway: unexpected frame type %d", typ)
			return
		}
	}
	if err := WriteFrame(g.conn, FrameVerdict, EncodeVerdict(true, 0, "")); err != nil {
		t.Errorf("gateway: sending verdict: %v", err)
	}
}

// TestClientStreaming drives a full streaming session against a scripted
// gateway: slices arrive in order under a valid running tag chain, a
// mid-run HEAL directive is surfaced to the callback and acknowledged on
// the wire, and the gateway's verdict comes back to the caller.
func TestClientStreaming(t *testing.T) {
	ep, _, _ := testSetup(t, "gps", 512)
	cli, srv := net.Pipe()
	defer cli.Close()
	gw := &streamGateway{t: t, conn: srv, healAt: 1}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		gw.run("gps")
	}()

	var healed []Heal
	c := NewClient(ep, WithStreaming(func(h Heal) { healed = append(healed, h) }))
	gv, err := c.Attest(cli, "gps")
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !gv.OK {
		t.Fatalf("verdict: %s", gv.Reason())
	}
	if len(gw.slices) < 5 {
		t.Errorf("expected many slices at a 512 B watermark, got %d", len(gw.slices))
	}
	if !gw.slices[len(gw.slices)-1].Final {
		t.Error("last slice not marked final")
	}
	// Watermark positions are cumulative CFLog bytes.
	var mark uint32
	for i, sl := range gw.slices {
		mark += uint32(len(gw.reports[i].CFLog))
		if sl.Mark != mark {
			t.Errorf("slice %d mark = %d, want %d", i, sl.Mark, mark)
		}
	}
	if len(healed) != 1 || healed[0].Directive != HealReattest {
		t.Fatalf("heal callback saw %+v", healed)
	}
	if gw.healGot.Directive != HealReattest || gw.healGot.Seq != healed[0].Seq {
		t.Errorf("gateway ack = %+v, callback saw %+v", gw.healGot, healed[0])
	}
}

// TestClientStreamingEarlyCut: the gateway renders its verdict after the
// first slice and hangs up. The client must surface that verdict even
// though the attested run is still producing slices whose writes now
// fail.
func TestClientStreamingEarlyCut(t *testing.T) {
	ep, _, _ := testSetup(t, "gps", 512)
	cli, srv := net.Pipe()
	defer cli.Close()
	go func() {
		defer srv.Close()
		typ, _, err := ReadFrame(srv)
		if err != nil || typ != FrameHello {
			return
		}
		chal, _ := attest.NewChallenge("gps")
		_ = WriteFrame(srv, FrameChal, chal.Encode())
		if typ, _, _ := ReadFrame(srv); typ != FrameSlice {
			return
		}
		_ = WriteFrame(srv, FrameVerdict, EncodeVerdict(false, 7, "detected mid-run"))
	}()
	c := NewClient(ep, WithStreaming(nil))
	gv, err := c.Attest(cli, "gps")
	if err != nil {
		t.Fatal(err)
	}
	if gv.OK || gv.Detail != "detected mid-run" {
		t.Fatalf("verdict = %+v", gv)
	}
}

// TestClientBatch: the Client's default (non-streaming) path speaks the
// classic RPRT protocol — byte-compatible with batch Client.Attest.
func TestClientBatch(t *testing.T) {
	ep, _, _ := testSetup(t, "prime", 0)
	cli, srv := net.Pipe()
	defer cli.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer srv.Close()
		typ, payload, err := ReadFrame(srv)
		if err != nil || typ != FrameHello {
			t.Errorf("expected HELO: type %d, %v", typ, err)
			return
		}
		app, device, err := ParseHelloID(payload)
		if err != nil || app != "prime" || device != "dev-42" {
			t.Errorf("HELO = (%q, %q, %v)", app, device, err)
			return
		}
		chal, _ := attest.NewChallenge("prime")
		_ = WriteFrame(srv, FrameChal, chal.Encode())
		reports, err := ReadReportStream(srv)
		if err != nil || len(reports) == 0 {
			t.Errorf("report stream: %d, %v", len(reports), err)
			return
		}
		_ = WriteFrame(srv, FrameVerdict, EncodeVerdict(true, 0, ""))
	}()
	gv, err := NewClient(ep, WithDevice("dev-42")).Attest(cli, "prime")
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !gv.OK {
		t.Fatalf("verdict: %s", gv.Reason())
	}
}

// TestClientWithFaults: the fault hook wraps the session's connection;
// a hook that corrupts the HELO must surface as a session error.
func TestClientWithFaults(t *testing.T) {
	ep, _, _ := testSetup(t, "prime", 0)
	cli, srv := net.Pipe()
	defer cli.Close()
	go func() {
		defer srv.Close()
		// Peer sees a corrupt frame header and hangs up.
		buf := make([]byte, FrameHeaderSize)
		_, _ = srv.Read(buf)
	}()
	wrapped := false
	c := NewClient(ep, WithFaults(func(rw io.ReadWriter) io.ReadWriter {
		wrapped = true
		return rw
	}))
	_, err := c.Attest(cli, "prime")
	if !wrapped {
		t.Error("fault hook never ran")
	}
	if err == nil {
		t.Error("session against a dead peer succeeded")
	}
}

// TestClientAttestDialNoRetry: without WithRetry, AttestDial makes
// exactly one attempt.
func TestClientAttestDialNoRetry(t *testing.T) {
	ep, _, _ := testSetup(t, "prime", 0)
	dials := 0
	c := NewClient(ep)
	_, st, err := c.AttestDial("prime", func() (io.ReadWriteCloser, error) {
		dials++
		cli, srv := net.Pipe()
		go func() {
			defer srv.Close()
			_, _, _ = ReadFrame(srv) // swallow HELO, hang up
		}()
		return cli, nil
	})
	if err == nil {
		t.Fatal("dead gateway accepted")
	}
	if dials != 1 || st.Attempts != 1 {
		t.Errorf("dials = %d, attempts = %d, want 1 each", dials, st.Attempts)
	}
	if !strings.Contains(err.Error(), "gave up after 1 attempts") {
		t.Errorf("err = %v", err)
	}
}

// TestClientAttestDialRetriesBusy: a BUSY shed with a hint retries on
// the configured policy and eventually succeeds.
func TestClientAttestDialRetriesBusy(t *testing.T) {
	ep, _, _ := testSetup(t, "prime", 0)
	dials := 0
	dial := func() (io.ReadWriteCloser, error) {
		dials++
		cli, srv := net.Pipe()
		n := dials
		go func() {
			defer srv.Close()
			typ, _, err := ReadFrame(srv)
			if err != nil || typ != FrameHello {
				return
			}
			if n < 3 {
				_ = WriteFrame(srv, FrameBusy, EncodeBusy(10*time.Millisecond))
				return
			}
			chal, _ := attest.NewChallenge("prime")
			_ = WriteFrame(srv, FrameChal, chal.Encode())
			if _, err := ReadReportStream(srv); err != nil {
				return
			}
			_ = WriteFrame(srv, FrameVerdict, EncodeVerdict(true, 0, ""))
		}()
		return cli, nil
	}
	var slept []time.Duration
	c := NewClient(ep, WithRetry(RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   time.Millisecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	}))
	gv, st, err := c.AttestDial("prime", dial)
	if err != nil {
		t.Fatal(err)
	}
	if !gv.OK {
		t.Fatalf("verdict: %s", gv.Reason())
	}
	if st.Attempts != 3 || st.BusyHints != 2 {
		t.Errorf("stats = %+v, want 3 attempts with 2 hinted retries", st)
	}
	for _, d := range slept {
		if d < 10*time.Millisecond {
			t.Errorf("slept %v, below the BUSY hint floor", d)
		}
	}
}
