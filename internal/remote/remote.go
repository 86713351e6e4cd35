// Package remote implements the RA challenge-response protocol of paper
// §II-C over a byte stream (net.Conn, net.Pipe, ...): the Verifier sends a
// fresh challenge, the Prover runs the attested application and streams
// signed (partial) reports back as the MTB watermark fires, and the
// Verifier authenticates the chain and reconstructs the path.
//
// Wire format: length-prefixed frames, each `u8 type | u32 len | payload`.
//
//	CHAL (Verifier->Prover): attest.Challenge encoding
//	RPRT (Prover->Verifier): attest.Report encoding; the Final flag inside
//	                         the report ends the session
//	FAIL (either direction): UTF-8 error string (unknown app, run fault)
//	HELO (Prover->Verifier): `u8 version | app name`; announces a device
//	                         dialing into a gateway (internal/server),
//	                         which answers with DICT+CHAL, CHAL, BUSY or
//	                         FAIL (version mismatches are rejected with a
//	                         FAIL wrapping ErrProtocolMismatch)
//	BUSY (Verifier->Prover): the gateway is at capacity; the session is
//	                         shed before any challenge is issued. The
//	                         payload is empty, or a u32 little-endian
//	                         retry-after hint in milliseconds
//	DICT (Verifier->Prover): live SpecCFA dictionary for this session
//	                         (speccfa.Dictionary wire encoding), sent
//	                         before CHAL so the prover compresses with the
//	                         same speculation set the gateway expands with
//	VRDT (Verifier->Prover): gateway verdict summary (ok flag + typed
//	                         reason code + detail)
//	SLICE (Prover->Verifier): streaming evidence slice — a partial report
//	                         wrapped with its sequence number, MTB
//	                         watermark position, running-auth tag and
//	                         final-slice bit (see stream.go); the gateway
//	                         verifies it immediately instead of buffering
//	                         to report-end
//	HEAL (Verifier->Prover): typed remediation directive pushed mid-run
//	                         (quarantine-app / re-provision-H_MEM /
//	                         force-reattest), acknowledged by HEALACK
//	HEALACK (Prover->Verifier): acknowledges one HEAL directive
//
// Evidence integrity does not depend on the transport: a man in the
// middle can drop the session but any modification is caught by the
// report authenticators and chain checks. BUSY shedding, deadlines and
// session caps (internal/server) are availability defenses only.
package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"

	"raptrack/internal/attest"
	"raptrack/internal/core"
	"raptrack/internal/speccfa"
	"raptrack/internal/verify"
)

// Frame types.
const (
	FrameChal    byte = 1 // Verifier->Prover: challenge
	FrameRprt    byte = 2 // Prover->Verifier: (partial) report
	FrameFail    byte = 3 // either direction: error string
	FrameHello   byte = 4 // Prover->Verifier: app announce (gateway mode)
	FrameBusy    byte = 5 // Verifier->Prover: session shed at capacity
	FrameVerdict byte = 6 // Verifier->Prover: session verdict summary
	FrameDict    byte = 7 // Verifier->Prover: session SpecCFA dictionary
	FrameSlice   byte = 8 // Prover->Verifier: streaming evidence slice
	FrameHeal    byte = 9 // Verifier->Prover: remediation directive
	FrameHealAck byte = 10 // Prover->Verifier: HEAL acknowledgement
)

// ProtocolVersion is negotiated in the HELO frame's leading byte. v2
// introduced the version byte itself, the DICT frame and coded verdicts;
// there is no compatibility path to the unversioned v1 HELO, so
// mismatches are rejected explicitly instead of mis-parsing.
const ProtocolVersion byte = 2

// ErrProtocolMismatch is returned (and sent inside a FAIL frame) when a
// HELO announces a protocol version this endpoint does not speak. Test
// with errors.Is.
var ErrProtocolMismatch = errors.New("remote: protocol version mismatch")

// EncodeHello builds a HELO payload announcing app at ProtocolVersion.
func EncodeHello(app string) []byte {
	return append([]byte{ProtocolVersion}, app...)
}

// EncodeHelloID builds a HELO payload announcing app together with a
// stable device identity. The device rides after a NUL separator —
// `u8 version | app | 0x00 | device` — which no application name
// contains, so the frame stays a valid v2 HELO: endpoints that only
// care about the app (ParseHello) keep working, while the gateway
// attributes journal records and healing state to (app, device). An
// empty device encodes exactly like EncodeHello.
func EncodeHelloID(app, device string) []byte {
	p := append([]byte{ProtocolVersion}, app...)
	if device != "" {
		p = append(p, 0)
		p = append(p, device...)
	}
	return p
}

// ParseHello validates a HELO payload's version byte and returns the
// announced application name.
func ParseHello(payload []byte) (string, error) {
	app, _, err := ParseHelloID(payload)
	return app, err
}

// ParseHelloID validates a HELO payload's version byte and returns the
// announced application name plus the optional device identity (empty
// when the prover sent a plain EncodeHello).
func ParseHelloID(payload []byte) (app, device string, err error) {
	if len(payload) == 0 {
		return "", "", fmt.Errorf("%w: empty HELO", ErrProtocolMismatch)
	}
	if payload[0] != ProtocolVersion {
		return "", "", fmt.Errorf("%w: peer speaks v%d, want v%d", ErrProtocolMismatch, payload[0], ProtocolVersion)
	}
	rest := payload[1:]
	if i := strings.IndexByte(string(rest), 0); i >= 0 {
		return string(rest[:i]), string(rest[i+1:]), nil
	}
	return string(rest), "", nil
}

// MaxFrame bounds a frame payload (a report window plus headers).
const MaxFrame = 1 << 20

// FrameHeaderSize is the fixed `u8 type | u32 len` frame prefix.
const FrameHeaderSize = 5

// WriteFrame emits one length-prefixed frame.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	hdr := make([]byte, FrameHeaderSize)
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame, rejecting payloads beyond
// MaxFrame before allocating.
//
// Every mid-frame truncation — the stream ending after a partial header,
// or anywhere short of the announced payload length — returns an error
// satisfying both errors.Is(err, ErrSessionTruncated) and
// errors.Is(err, io.ErrUnexpectedEOF), regardless of which read hit the
// end. A clean EOF before the first header byte is returned as io.EOF
// unchanged (only the caller knows whether more frames were expected
// there; see mapTruncation).
func ReadFrame(r io.Reader) (byte, []byte, error) {
	hdr := make([]byte, FrameHeaderSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, fmt.Errorf("%w: frame header cut short: %w", ErrSessionTruncated, err)
		}
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("remote: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			// The header promised n payload bytes: an EOF here is a
			// partial read even when zero payload bytes arrived.
			err = io.ErrUnexpectedEOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, fmt.Errorf("%w: %d-byte payload cut short: %w", ErrSessionTruncated, n, err)
		}
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// MeteredConn wraps a stream and reports bytes moved in each direction —
// the hook provers use to attribute frame traffic to an observability
// registry without this package importing one. Either callback may be
// nil. Close is forwarded when the underlying stream supports it.
type MeteredConn struct {
	RW      io.ReadWriter
	OnRead  func(n int)
	OnWrite func(n int)
}

func (m *MeteredConn) Read(p []byte) (int, error) {
	n, err := m.RW.Read(p)
	if m.OnRead != nil && n > 0 {
		m.OnRead(n)
	}
	return n, err
}

func (m *MeteredConn) Write(p []byte) (int, error) {
	n, err := m.RW.Write(p)
	if m.OnWrite != nil && n > 0 {
		m.OnWrite(n)
	}
	return n, err
}

func (m *MeteredConn) Close() error {
	if c, ok := m.RW.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// ErrSessionTruncated is returned when the stream ends before the final
// report (or before an expected frame): the peer died or a middlebox cut
// the connection. Test with errors.Is.
var ErrSessionTruncated = errors.New("remote: session truncated before the final report")

// ErrBusy is returned when a gateway sheds the session with a BUSY frame
// instead of issuing a challenge. Test with errors.Is; retrying later is
// the expected client reaction. The concrete error is a *BusyError,
// which may carry the gateway's retry-after hint.
var ErrBusy = errors.New("remote: gateway at capacity")

// BusyError is the typed form of a BUSY shed. RetryAfter is the
// gateway's hint for when to retry (zero when the frame carried none).
// errors.Is(err, ErrBusy) matches it.
type BusyError struct {
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("remote: gateway at capacity (retry after %v)", e.RetryAfter)
	}
	return ErrBusy.Error()
}

// Is makes errors.Is(err, ErrBusy) hold for BusyError values.
func (e *BusyError) Is(target error) bool { return target == ErrBusy }

// ErrBadBusy is returned for malformed BUSY frame payloads.
var ErrBadBusy = errors.New("remote: malformed busy frame payload")

// EncodeBusy builds a BUSY frame payload. A zero (or negative) hint
// yields the empty payload — the pre-hint wire form old endpoints emit
// and expect; sub-millisecond hints round up to 1 ms so they survive the
// encoding.
func EncodeBusy(retryAfter time.Duration) []byte {
	if retryAfter <= 0 {
		return nil
	}
	ms := retryAfter.Milliseconds()
	if ms <= 0 {
		ms = 1
	}
	if ms > math.MaxUint32 {
		ms = math.MaxUint32
	}
	return binary.LittleEndian.AppendUint32(nil, uint32(ms))
}

// ParseBusy decodes a BUSY frame payload: empty means "no hint", four
// bytes carry a little-endian retry-after count in milliseconds. Any
// other length is malformed (ErrBadBusy).
func ParseBusy(payload []byte) (time.Duration, error) {
	switch len(payload) {
	case 0:
		return 0, nil
	case 4:
		return time.Duration(binary.LittleEndian.Uint32(payload)) * time.Millisecond, nil
	default:
		return 0, fmt.Errorf("%w: %d bytes", ErrBadBusy, len(payload))
	}
}

// PeerFailError carries the peer's FAIL frame: Context names the protocol
// step that surfaced it, Msg is the peer's error string verbatim.
type PeerFailError struct {
	Context string
	Msg     string
}

func (e *PeerFailError) Error() string { return "remote: " + e.Context + ": " + e.Msg }

// Fatal reports whether the peer's failure is semantic — a condition an
// identical retry cannot fix (unprovisioned application, protocol version
// mismatch). FAIL is a string-typed frame, so this is necessarily a
// classification of the message text; everything unrecognized is treated
// as transient, which at worst wastes a retry budget.
func (e *PeerFailError) Fatal() bool {
	return strings.Contains(e.Msg, "unknown application") ||
		strings.Contains(e.Msg, "protocol version mismatch")
}

// mapTruncation converts a premature end-of-stream into the
// ErrSessionTruncated sentinel so callers can errors.Is it; other errors
// (deadline expiry, oversized frames, ...) pass through unchanged, as do
// errors ReadFrame already mapped.
func mapTruncation(err error) error {
	if errors.Is(err, ErrSessionTruncated) {
		return err
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.ErrClosedPipe) {
		return fmt.Errorf("%w (%v)", ErrSessionTruncated, err)
	}
	return err
}

// ProverEndpoint serves attestation requests for a set of provisioned
// applications. Each request constructs a fresh Prover via the factory
// (applications are single-session). Provision before serving; concurrent
// sessions (ServeOne / Client.Attest from many goroutines) are safe.
type ProverEndpoint struct {
	mu        sync.RWMutex
	factories map[string]func() (*core.Prover, error)
}

// NewProverEndpoint returns an empty endpoint.
func NewProverEndpoint() *ProverEndpoint {
	return &ProverEndpoint{factories: make(map[string]func() (*core.Prover, error))}
}

// Provision registers an application under its challenge name.
func (p *ProverEndpoint) Provision(app string, factory func() (*core.Prover, error)) {
	p.mu.Lock()
	p.factories[app] = factory
	p.mu.Unlock()
}

func (p *ProverEndpoint) factory(app string) (func() (*core.Prover, error), bool) {
	p.mu.RLock()
	f, ok := p.factories[app]
	p.mu.RUnlock()
	return f, ok
}

// ServeOne handles a single challenge-response session on conn. Reports
// are streamed as the engine emits them (partials included), so the
// Verifier receives evidence while the application still runs. A BUSY
// frame in place of the challenge returns ErrBusy; a FAIL frame surfaces
// the peer's error string.
func (p *ProverEndpoint) ServeOne(conn io.ReadWriter) error {
	typ, payload, err := ReadFrame(conn)
	if err != nil {
		return fmt.Errorf("remote: reading challenge: %w", mapTruncation(err))
	}
	var dict *speccfa.Dictionary
	if typ == FrameDict {
		if dict, err = speccfa.DecodeDictionary(payload); err != nil {
			_ = WriteFrame(conn, FrameFail, []byte("bad dictionary"))
			return fmt.Errorf("remote: decoding dictionary: %w", err)
		}
		if typ, payload, err = ReadFrame(conn); err != nil {
			return fmt.Errorf("remote: reading challenge: %w", mapTruncation(err))
		}
	}
	return p.serveSession(conn, typ, payload, dict)
}

// serveSession runs the prover side from an already-read opening frame,
// optionally provisioning a session dictionary (gateway DICT handshake)
// into the freshly built prover's engine before the attested run.
func (p *ProverEndpoint) serveSession(conn io.ReadWriter, typ byte, payload []byte, dict *speccfa.Dictionary) error {
	switch typ {
	case FrameChal:
	case FrameBusy:
		// A malformed hint payload degrades to "no hint": the shed itself
		// is unambiguous from the frame type alone.
		ra, _ := ParseBusy(payload)
		return &BusyError{RetryAfter: ra}
	case FrameFail:
		return &PeerFailError{Context: "verifier rejected session", Msg: string(payload)}
	default:
		return fmt.Errorf("remote: expected challenge frame, got type %d", typ)
	}
	chal, err := attest.DecodeChallenge(payload)
	if err != nil {
		return err
	}
	factory, ok := p.factory(chal.App)
	if !ok {
		_ = WriteFrame(conn, FrameFail, []byte(fmt.Sprintf("unknown application %q", chal.App)))
		return fmt.Errorf("remote: unknown application %q", chal.App)
	}
	prover, err := factory()
	if err != nil {
		_ = WriteFrame(conn, FrameFail, []byte("prover construction failed"))
		return err
	}
	if dict != nil {
		if err := prover.Engine.SetSpeculation(dict); err != nil {
			_ = WriteFrame(conn, FrameFail, []byte("dictionary provisioning failed"))
			return fmt.Errorf("remote: provisioning dictionary: %w", err)
		}
	}

	var sendErr error
	prover.Engine.OnReport = func(r *attest.Report) {
		if sendErr == nil {
			sendErr = WriteFrame(conn, FrameRprt, r.Encode())
		}
	}
	if _, _, err := prover.Attest(chal); err != nil {
		_ = WriteFrame(conn, FrameFail, []byte(err.Error()))
		return fmt.Errorf("remote: attested run: %w", err)
	}
	if sendErr != nil {
		return fmt.Errorf("remote: streaming reports: %w", sendErr)
	}
	return nil
}

// GatewayVerdict is the gateway's session outcome as carried by a VRDT
// frame: the full verify.Verdict stays server-side, the device only
// learns pass/fail, the typed rejection class and the detail text.
type GatewayVerdict struct {
	OK     bool
	Code   verify.ReasonCode
	Detail string
}

// Reason renders the failure as "code: detail" ("" when OK), mirroring
// verify.Verdict.Reason.
func (gv GatewayVerdict) Reason() string {
	if gv.OK {
		return ""
	}
	if gv.Detail == "" {
		return gv.Code.String()
	}
	return gv.Code.String() + ": " + gv.Detail
}

// EncodeVerdict serializes a verdict summary for a VRDT frame:
// `u8 ok | u8 code | detail`.
func EncodeVerdict(ok bool, code verify.ReasonCode, detail string) []byte {
	b := make([]byte, 2, 2+len(detail))
	if ok {
		b[0] = 1
	}
	b[1] = byte(code)
	return append(b, detail...)
}

// ErrBadVerdict is returned for malformed VRDT payloads.
var ErrBadVerdict = errors.New("remote: malformed verdict frame")

// DecodeVerdict parses a VRDT frame payload, rejecting unknown reason
// codes and inconsistent ok/code combinations.
func DecodeVerdict(b []byte) (GatewayVerdict, error) {
	if len(b) < 2 || b[0] > 1 {
		return GatewayVerdict{}, ErrBadVerdict
	}
	code := verify.ReasonCode(b[1])
	if !code.Valid() {
		return GatewayVerdict{}, fmt.Errorf("%w: unknown reason code %d", ErrBadVerdict, b[1])
	}
	ok := b[0] == 1
	if ok && code != verify.ReasonNone {
		return GatewayVerdict{}, fmt.Errorf("%w: accepted verdict carries reason %v", ErrBadVerdict, code)
	}
	return GatewayVerdict{OK: ok, Code: code, Detail: string(b[2:])}, nil
}

// attestBatch drives the prover side of one report-at-end gateway session
// on conn: it announces app (and the optional stable device identity)
// with a versioned HELO frame, adopts the gateway's session dictionary if
// one is delivered, answers the challenge while streaming RPRT frames,
// and returns the gateway's verdict. ErrBusy
// reports a shed session; ErrSessionTruncated a gateway that died
// mid-protocol.
func (p *ProverEndpoint) attestBatch(conn io.ReadWriter, app, device string) (GatewayVerdict, error) {
	var gv GatewayVerdict
	if err := WriteFrame(conn, FrameHello, EncodeHelloID(app, device)); err != nil {
		return gv, fmt.Errorf("remote: announcing app: %w", err)
	}
	typ, payload, err := ReadFrame(conn)
	if err != nil {
		return gv, fmt.Errorf("remote: reading challenge: %w", mapTruncation(err))
	}
	var dict *speccfa.Dictionary
	if typ == FrameDict {
		dict, err = speccfa.DecodeDictionary(payload)
		if err != nil {
			return gv, fmt.Errorf("remote: decoding session dictionary: %w", err)
		}
		typ, payload, err = ReadFrame(conn)
		if err != nil {
			return gv, fmt.Errorf("remote: reading challenge: %w", mapTruncation(err))
		}
	}
	if err := p.serveSession(conn, typ, payload, dict); err != nil {
		return gv, err
	}
	typ, payload, err = ReadFrame(conn)
	if err != nil {
		return gv, fmt.Errorf("remote: reading verdict: %w", mapTruncation(err))
	}
	switch typ {
	case FrameVerdict:
		return DecodeVerdict(payload)
	case FrameFail:
		return gv, &PeerFailError{Context: "gateway reported failure", Msg: string(payload)}
	default:
		return gv, fmt.Errorf("remote: expected verdict frame, got type %d", typ)
	}
}

// SessionResult is what the Verifier side learns from one session.
type SessionResult struct {
	Verdict *verify.Verdict
	Reports []*attest.Report
}

// RequestAttestation drives the Verifier side of one session on conn:
// send a fresh challenge for app, collect the report chain, authenticate
// and reconstruct.
func RequestAttestation(conn io.ReadWriter, app string, verifier *verify.Verifier) (*SessionResult, error) {
	chal, err := attest.NewChallenge(app)
	if err != nil {
		return nil, err
	}
	return RequestWithChallenge(conn, chal, verifier)
}

// ReadReportStream reads the Prover's report stream from r until the
// final report, returning the ordered chain. A stream that ends early
// maps to ErrSessionTruncated; a FAIL frame surfaces the Prover's error.
// The chain is NOT authenticated here — pass it to verify.Verifier.Verify
// (or feed the reports one by one into a verify.Session).
func ReadReportStream(r io.Reader) ([]*attest.Report, error) {
	var reports []*attest.Report
	for {
		typ, payload, err := ReadFrame(r)
		if err != nil {
			return nil, fmt.Errorf("remote: reading report stream: %w", mapTruncation(err))
		}
		switch typ {
		case FrameRprt:
			rp, err := attest.DecodeReport(payload)
			if err != nil {
				return nil, err
			}
			reports = append(reports, rp)
			if rp.Final {
				return reports, nil
			}
		case FrameFail:
			return nil, &PeerFailError{Context: "prover reported failure", Msg: string(payload)}
		default:
			return nil, fmt.Errorf("remote: unexpected frame type %d in report stream", typ)
		}
	}
}

// RequestWithChallenge is RequestAttestation with a caller-supplied
// challenge (tests use it to control nonces).
func RequestWithChallenge(conn io.ReadWriter, chal attest.Challenge, verifier *verify.Verifier) (*SessionResult, error) {
	if err := WriteFrame(conn, FrameChal, chal.Encode()); err != nil {
		return nil, fmt.Errorf("remote: sending challenge: %w", err)
	}
	reports, err := ReadReportStream(conn)
	if err != nil {
		return nil, err
	}
	verdict, err := verifier.Verify(chal, reports)
	if err != nil {
		return nil, err
	}
	return &SessionResult{Verdict: verdict, Reports: reports}, nil
}
