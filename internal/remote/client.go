// Client is the one prover-side entry point for gateway sessions: a
// single configured object, constructed once with functional options,
// that attests on as many connections as the device dials.
package remote

import "io"

// Client drives gateway attestation sessions for a ProverEndpoint with a
// fixed configuration: device identity, batch vs streaming delivery,
// retry policy, and an optional connection-wrapping fault hook. A Client
// is immutable after NewClient and safe for concurrent sessions.
type Client struct {
	ep       *ProverEndpoint
	device   string
	stream   bool
	onHeal   func(Heal)
	retry    RetryPolicy
	hasRetry bool
	wrap     func(io.ReadWriter) io.ReadWriter
}

// ClientOption configures a Client at construction.
type ClientOption func(*Client)

// WithDevice announces a stable device identity in the HELO frame: the
// gateway attributes journal records and healing state to it instead of
// the ephemeral transport address, so they survive reconnects.
func WithDevice(device string) ClientOption {
	return func(c *Client) { c.device = device }
}

// WithStreaming switches report delivery from buffered RPRT frames to
// streaming SLICE frames: each partial report ships the moment the MTB
// watermark fires, carrying the running authentication tag, so the
// gateway verifies slice-by-slice and detection latency is bounded by
// the slice size instead of the run length. onHeal (nil allowed)
// observes HEAL directives the gateway pushes mid-run; the Client
// acknowledges every directive on the wire regardless.
func WithStreaming(onHeal func(Heal)) ClientOption {
	return func(c *Client) {
		c.stream = true
		c.onHeal = onHeal
	}
}

// WithRetry makes AttestDial retry failed sessions under pol (fresh
// connection and fresh gateway challenge per attempt). Without it
// AttestDial runs exactly one attempt.
func WithRetry(pol RetryPolicy) ClientOption {
	return func(c *Client) {
		c.retry = pol
		c.hasRetry = true
	}
}

// WithFaults wraps every session's connection through wrap before any
// frame is exchanged. Chaos harnesses (internal/faults) splice loss,
// corruption and stall injectors here without the session code knowing.
func WithFaults(wrap func(io.ReadWriter) io.ReadWriter) ClientOption {
	return func(c *Client) { c.wrap = wrap }
}

// NewClient builds a Client for the endpoint's provisioned applications.
func NewClient(p *ProverEndpoint, opts ...ClientOption) *Client {
	c := &Client{ep: p}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Attest runs one gateway session for app on an existing connection and
// returns the gateway's verdict: HELO (with the configured device
// identity), adopt the session dictionary if one is delivered, answer
// the challenge while delivering evidence (RPRT frames, or SLICE frames
// with HEAL handling under WithStreaming). ErrBusy reports a shed
// session; ErrSessionTruncated a gateway that died mid-protocol.
//
// Streaming sessions read and write conn concurrently (net.Conn and
// net.Pipe both support that).
func (c *Client) Attest(conn io.ReadWriter, app string) (GatewayVerdict, error) {
	if c.wrap != nil {
		conn = c.wrap(conn)
	}
	if c.stream {
		return c.ep.attestStream(conn, app, c.device, c.onHeal)
	}
	return c.ep.attestBatch(conn, app, c.device)
}

// AttestDial dials sessions for app until one completes: one attempt
// without WithRetry, otherwise the policy's backoff loop with a fresh
// connection (and fresh gateway challenge) per attempt. The returned
// GatewayVerdict may still report a rejection — "the session completed"
// and "the evidence attested a benign path" are separate concerns.
func (c *Client) AttestDial(app string, dial func() (io.ReadWriteCloser, error)) (GatewayVerdict, RetryStats, error) {
	pol := c.retry
	if !c.hasRetry {
		pol = RetryPolicy{MaxAttempts: 1}
	}
	return c.ep.attestRetry(dial, pol, func(conn io.ReadWriter) (GatewayVerdict, error) {
		return c.Attest(conn, app)
	})
}
