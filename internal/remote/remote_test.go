package remote

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"

	"raptrack/internal/apps"
	"raptrack/internal/attest"
	"raptrack/internal/core"
	"raptrack/internal/linker"
	"raptrack/internal/speccfa"
	"raptrack/internal/verify"
)

// testSetup provisions one app on a fresh endpoint and builds the
// matching verifier.
func testSetup(t *testing.T, appName string, watermark int) (*ProverEndpoint, *verify.Verifier, *linker.Output) {
	t.Helper()
	a, err := apps.Get(appName)
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
	ep := NewProverEndpoint()
	ep.Provision(appName, func() (*core.Prover, error) {
		return core.NewProver(link, key, core.ProverConfig{
			SetupMem:  a.SetupMem(),
			Watermark: watermark,
		})
	})
	return ep, core.NewVerifier(link, key), link
}

// session runs one end-to-end challenge-response over an in-memory pipe.
func session(t *testing.T, ep *ProverEndpoint, v *verify.Verifier, app string) (*SessionResult, error) {
	t.Helper()
	cli, srv := net.Pipe()
	defer cli.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	var srvErr error
	go func() {
		defer wg.Done()
		defer srv.Close()
		srvErr = ep.ServeOne(srv)
	}()
	res, err := RequestAttestation(cli, app, v)
	wg.Wait()
	if err == nil && srvErr != nil {
		t.Logf("server-side: %v", srvErr)
	}
	return res, err
}

func TestRemoteRoundTrip(t *testing.T) {
	ep, v, _ := testSetup(t, "prime", 0)
	res, err := session(t, ep, v, "prime")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdict.OK {
		t.Fatalf("verdict: %s", res.Verdict.Reason())
	}
	if len(res.Reports) == 0 || !res.Reports[len(res.Reports)-1].Final {
		t.Fatalf("report chain: %d reports", len(res.Reports))
	}
}

func TestRemoteStreamsPartials(t *testing.T) {
	ep, v, _ := testSetup(t, "gps", 512)
	res, err := session(t, ep, v, "gps")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdict.OK {
		t.Fatalf("verdict: %s", res.Verdict.Reason())
	}
	if len(res.Reports) < 5 {
		t.Fatalf("expected many partial reports at a 512 B watermark, got %d", len(res.Reports))
	}
}

func TestRemoteUnknownApp(t *testing.T) {
	ep, v, _ := testSetup(t, "prime", 0)
	_, err := session(t, ep, v, "missing")
	if err == nil || !strings.Contains(err.Error(), "unknown application") {
		t.Fatalf("err = %v", err)
	}
}

// mitm forwards frames between two pipes, mutating report payloads.
func mitm(t *testing.T, mutate func([]byte)) (clientSide net.Conn, proverSide net.Conn) {
	t.Helper()
	c1, m1 := net.Pipe() // client <-> mitm
	m2, p2 := net.Pipe() // mitm <-> prover
	// challenge direction: pass through
	go func() {
		for {
			typ, payload, err := ReadFrame(m1)
			if err != nil {
				m2.Close()
				return
			}
			if err := WriteFrame(m2, typ, payload); err != nil {
				return
			}
		}
	}()
	// report direction: mutate
	go func() {
		for {
			typ, payload, err := ReadFrame(m2)
			if err != nil {
				m1.Close()
				return
			}
			if typ == FrameRprt {
				mutate(payload)
			}
			if err := WriteFrame(m1, typ, payload); err != nil {
				return
			}
		}
	}()
	return c1, p2
}

func TestRemoteTamperInTransitRejected(t *testing.T) {
	ep, v, _ := testSetup(t, "prime", 0)
	cli, srv := mitm(t, func(b []byte) {
		if len(b) > 60 {
			b[60] ^= 0x01 // flip a bit inside the report body
		}
	})
	defer cli.Close()
	go func() {
		defer srv.Close()
		_ = ep.ServeOne(srv)
	}()
	_, err := RequestAttestation(cli, "prime", v)
	if err == nil {
		t.Fatal("tampered transit accepted")
	}
	if !strings.Contains(err.Error(), "authenticator") && !strings.Contains(err.Error(), "chain") {
		t.Errorf("err = %v", err)
	}
}

// TestRemoteTruncatedSessionFails kills the prover mid-stream (after the
// first partial report) and asserts the Verifier surfaces the
// ErrSessionTruncated sentinel through errors.Is.
func TestRemoteTruncatedSessionFails(t *testing.T) {
	ep, v, _ := testSetup(t, "prime", 512)
	cli, srv := net.Pipe()
	go func() {
		// Serve but cut the connection after the first report frame.
		typ, payload, err := ReadFrame(srv)
		if err != nil || typ != FrameChal {
			srv.Close()
			return
		}
		chal, _ := attest.DecodeChallenge(payload)
		prover, _ := func() (*core.Prover, error) {
			a, _ := apps.Get("prime")
			link, _ := core.LinkForCFA(a.Build(), core.DefaultLinkOptions())
			key, _ := attest.GenerateHMACKey()
			return core.NewProver(link, key, core.ProverConfig{SetupMem: a.SetupMem(), Watermark: 512})
		}()
		sent := false
		prover.Engine.OnReport = func(r *attest.Report) {
			if !sent {
				_ = WriteFrame(srv, FrameRprt, r.Encode())
				sent = true
			}
		}
		_, _, _ = prover.Attest(chal)
		srv.Close()
	}()
	defer cli.Close()
	_, err := RequestAttestation(cli, "prime", v)
	if err == nil {
		t.Fatal("truncated session accepted")
	}
	if !errors.Is(err, ErrSessionTruncated) {
		t.Fatalf("errors.Is(err, ErrSessionTruncated) = false; err = %v", err)
	}
	_ = ep
}

// TestRemoteTruncatedBeforeAnyReport kills the prover right after the
// challenge: the very first stream read must map to the sentinel too.
func TestRemoteTruncatedBeforeAnyReport(t *testing.T) {
	_, v, _ := testSetup(t, "prime", 0)
	cli, srv := net.Pipe()
	go func() {
		_, _, _ = ReadFrame(srv) // swallow the challenge
		srv.Close()
	}()
	defer cli.Close()
	_, err := RequestAttestation(cli, "prime", v)
	if !errors.Is(err, ErrSessionTruncated) {
		t.Fatalf("errors.Is(err, ErrSessionTruncated) = false; err = %v", err)
	}
}

func TestFrameLimits(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	go func() {
		defer c2.Close()
		hdr := []byte{FrameRprt, 0xff, 0xff, 0xff, 0x7f} // absurd length
		_, _ = c2.Write(hdr)
	}()
	if _, _, err := ReadFrame(c1); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("oversized frame: %v", err)
	}
}

// writeCounter records every Write call it receives.
type writeCounter struct {
	calls int
	data  []byte
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.calls++
	w.data = append(w.data, p...)
	return len(p), nil
}

// TestWriteFrameOneWrite: a frame, header and payload, reaches the writer
// in exactly one Write call (one syscall on a socket), and reads back.
func TestWriteFrameOneWrite(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte("x"), make([]byte, 4096)} {
		var w writeCounter
		if err := WriteFrame(&w, FrameChal, payload); err != nil {
			t.Fatal(err)
		}
		if w.calls != 1 {
			t.Errorf("%d-byte payload: %d Write calls, want 1", len(payload), w.calls)
		}
		typ, got, err := ReadFrame(bytes.NewReader(w.data))
		if err != nil || typ != FrameChal || !bytes.Equal(got, payload) {
			t.Errorf("%d-byte payload read back as type %d, %d bytes, err %v", len(payload), typ, len(got), err)
		}
	}
}

// TestRequestErrorPaths drives the Verifier side against scripted peer
// behavior: every malformed or adversarial stream must fail with a
// descriptive error (and the right sentinel where one exists).
func TestRequestErrorPaths(t *testing.T) {
	_, v, _ := testSetup(t, "prime", 0)
	cases := []struct {
		name string
		// peer scripts the prover side after reading the challenge
		peer    func(t *testing.T, conn net.Conn)
		wantSub string // substring of the error
		wantIs  error  // optional sentinel for errors.Is
	}{
		{
			name: "wrong frame type",
			peer: func(t *testing.T, conn net.Conn) {
				_ = WriteFrame(conn, FrameChal, []byte("nonsense")) // challenge echoed back
			},
			wantSub: "unexpected frame type",
		},
		{
			name: "unknown frame type",
			peer: func(t *testing.T, conn net.Conn) {
				_ = WriteFrame(conn, 0x7f, nil)
			},
			wantSub: "unexpected frame type",
		},
		{
			name: "oversized frame",
			peer: func(t *testing.T, conn net.Conn) {
				_, _ = conn.Write([]byte{FrameRprt, 0xff, 0xff, 0xff, 0xff})
			},
			wantSub: "exceeds limit",
		},
		{
			name: "fail frame",
			peer: func(t *testing.T, conn net.Conn) {
				_ = WriteFrame(conn, FrameFail, []byte("engine on fire"))
			},
			wantSub: "engine on fire",
		},
		{
			name: "garbage report payload",
			peer: func(t *testing.T, conn net.Conn) {
				_ = WriteFrame(conn, FrameRprt, []byte{1, 2, 3})
			},
			wantIs: attest.ErrBadReport,
		},
		{
			name:   "immediate close",
			peer:   func(t *testing.T, conn net.Conn) {},
			wantIs: ErrSessionTruncated,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cli, srv := net.Pipe()
			defer cli.Close()
			go func() {
				defer srv.Close()
				if typ, _, err := ReadFrame(srv); err != nil || typ != FrameChal {
					return
				}
				tc.peer(t, srv)
			}()
			_, err := RequestAttestation(cli, "prime", v)
			if err == nil {
				t.Fatal("scripted failure accepted")
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("err = %v, want substring %q", err, tc.wantSub)
			}
			if tc.wantIs != nil && !errors.Is(err, tc.wantIs) {
				t.Errorf("errors.Is(%v, %v) = false", err, tc.wantIs)
			}
		})
	}
}

// TestServeOneBusyAndFail covers the prover-side reactions to gateway
// control frames: BUSY maps to ErrBusy, FAIL surfaces the reason.
func TestServeOneBusyAndFail(t *testing.T) {
	ep, _, _ := testSetup(t, "prime", 0)
	t.Run("busy", func(t *testing.T) {
		cli, srv := net.Pipe()
		defer cli.Close()
		go func() {
			defer srv.Close()
			_ = WriteFrame(srv, FrameBusy, nil)
		}()
		if err := ep.ServeOne(cli); !errors.Is(err, ErrBusy) {
			t.Fatalf("errors.Is(err, ErrBusy) = false; err = %v", err)
		}
	})
	t.Run("fail", func(t *testing.T) {
		cli, srv := net.Pipe()
		defer cli.Close()
		go func() {
			defer srv.Close()
			_ = WriteFrame(srv, FrameFail, []byte("no capacity today"))
		}()
		err := ep.ServeOne(cli)
		if err == nil || !strings.Contains(err.Error(), "no capacity today") {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestVerdictRoundTrip(t *testing.T) {
	for _, gv := range []GatewayVerdict{
		{OK: true},
		{OK: false, Code: verify.ReasonROP, Detail: "return destination 0x1234 != call-site successor"},
		{OK: false, Code: verify.ReasonHMemMismatch},
	} {
		got, err := DecodeVerdict(EncodeVerdict(gv.OK, gv.Code, gv.Detail))
		if err != nil {
			t.Fatal(err)
		}
		if got != gv {
			t.Errorf("round trip: got %+v, want %+v", got, gv)
		}
	}
	if _, err := DecodeVerdict(nil); !errors.Is(err, ErrBadVerdict) {
		t.Errorf("empty verdict payload: %v", err)
	}
	if _, err := DecodeVerdict([]byte{9, 0}); !errors.Is(err, ErrBadVerdict) {
		t.Errorf("bad ok byte: %v", err)
	}
	// Unknown reason codes and accepted-but-coded payloads are rejected.
	if _, err := DecodeVerdict([]byte{0, 0xee}); !errors.Is(err, ErrBadVerdict) {
		t.Errorf("unknown reason code: %v", err)
	}
	if _, err := DecodeVerdict([]byte{1, byte(verify.ReasonROP)}); !errors.Is(err, ErrBadVerdict) {
		t.Errorf("ok verdict with a rejection code: %v", err)
	}
}

// TestHelloVersionNegotiation: the v2 HELO carries the protocol version;
// a mismatched or empty payload maps to ErrProtocolMismatch.
func TestHelloVersionNegotiation(t *testing.T) {
	app, err := ParseHello(EncodeHello("prime"))
	if err != nil || app != "prime" {
		t.Fatalf("round trip: app=%q err=%v", app, err)
	}
	if _, err := ParseHello(nil); !errors.Is(err, ErrProtocolMismatch) {
		t.Errorf("empty hello: %v", err)
	}
	old := append([]byte{ProtocolVersion - 1}, "prime"...)
	if _, err := ParseHello(old); !errors.Is(err, ErrProtocolMismatch) {
		t.Errorf("stale version: %v", err)
	} else if !strings.Contains(err.Error(), "v1") || !strings.Contains(err.Error(), "v2") {
		t.Errorf("mismatch error should name both versions: %v", err)
	}
}

// TestRemoteDictionaryDelivery: the gateway-side DICT frame provisions the
// prover's engine, so compressed evidence round-trips when the verifier
// expands with the same dictionary.
func TestRemoteDictionaryDelivery(t *testing.T) {
	ep, v, _ := testSetup(t, "prime", 0)

	// Mine a dictionary from one plain session's evidence.
	plain, err := session(t, ep, v, "prime")
	if err != nil || !plain.Verdict.OK {
		t.Fatalf("plain session: err=%v", err)
	}
	dict, err := speccfa.Mine(plain.Verdict.Evidence, 8, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if dict.Len() == 0 {
		t.Skip("no repetition to mine in this app")
	}

	// Second session: verifier side sends DICT before CHAL; the prover
	// compresses with it, and the verifier expands with the same one.
	cli, srv := net.Pipe()
	defer cli.Close()
	go func() {
		defer srv.Close()
		_ = ep.ServeOne(srv)
	}()
	chal, err := attest.NewChallenge("prime")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(cli, FrameDict, dict.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(cli, FrameChal, chal.Encode()); err != nil {
		t.Fatal(err)
	}
	reports, err := ReadReportStream(cli)
	if err != nil {
		t.Fatal(err)
	}
	vd, err := v.VerifyWithDictionary(chal, reports, dict)
	if err != nil {
		t.Fatal(err)
	}
	if !vd.OK {
		t.Fatalf("compressed session rejected: %s", vd.Reason())
	}
	var compressed, plainBytes int
	for _, r := range reports {
		compressed += len(r.CFLog)
	}
	for _, r := range plain.Reports {
		plainBytes += len(r.CFLog)
	}
	if compressed >= plainBytes {
		t.Errorf("dictionary did not compress: %d B >= %d B", compressed, plainBytes)
	}
}
