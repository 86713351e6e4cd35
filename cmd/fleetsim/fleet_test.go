package main

import (
	"io"
	"testing"
	"time"
)

// splitWriter issues every Write as pieces of at most n bytes, the way a
// device stack with a small transmit buffer would, and counts them.
type splitWriter struct {
	io.ReadWriter
	n      int
	writes int
}

func (w *splitWriter) Write(p []byte) (int, error) {
	done := 0
	for done < len(p) {
		k := min(w.n, len(p)-done)
		m, err := w.ReadWriter.Write(p[done : done+k])
		done += m
		w.writes++
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

// TestSlowConnChargesRoundTrips: a session's total link delay is its
// protocol round trips (HELO→CHAL, REPORTS→VRDT) times the link latency,
// however many writes its frames take.
func TestSlowConnChargesRoundTrips(t *testing.T) {
	spec, err := loadApp("fibcall")
	if err != nil {
		t.Fatal(err)
	}
	gw := newGateway([]*appSpec{spec})
	ts := newTemplateStore([]*appSpec{spec})
	const lat = 2 * time.Millisecond
	d := &device{id: "device-000000", app: spec.name, latency: lat}
	for _, piece := range []int{1 << 20, 64, 5} {
		conn, done := dialGateway(gw, d)
		w := &splitWriter{ReadWriter: conn, n: piece}
		gv, err := ts.attest(w, d.app, d.id)
		conn.Close()
		<-done
		if err != nil || !gv.OK {
			t.Fatalf("piece=%d: session failed: ok=%v err=%v", piece, gv.OK, err)
		}
		if got, want := conn.(*slowConn).delay, 2*lat; got != want {
			t.Errorf("piece=%d: %d writes charged %v of link delay, want %v (2 round trips)", piece, w.writes, got, want)
		}
		if w.writes < 3 {
			t.Errorf("piece=%d: only %d writes; the session should take several", piece, w.writes)
		}
	}
}
