package remote

import (
	"bytes"
	"testing"
	"time"

	"raptrack/internal/attest"
	"raptrack/internal/verify"
)

// frameSeed builds one valid frame encoding for the seed corpus.
func frameSeed(typ byte, payload []byte) []byte {
	var b bytes.Buffer
	if err := WriteFrame(&b, typ, payload); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// FuzzReadFrame feeds arbitrary bytes to the frame parser: it must never
// panic, and whatever it accepts must re-encode to the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	chal, err := attest.NewChallenge("prime")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frameSeed(FrameChal, chal.Encode()))
	f.Add(frameSeed(FrameRprt, (&attest.Report{App: "prime", Final: true}).Encode()))
	f.Add(frameSeed(FrameFail, []byte("unknown application")))
	f.Add(frameSeed(FrameHello, EncodeHello("gps")))
	f.Add(frameSeed(FrameBusy, nil))
	f.Add(frameSeed(FrameVerdict, EncodeVerdict(false, verify.ReasonHMemMismatch, "H_MEM mismatch")))
	f.Add([]byte{})
	f.Add([]byte{FrameRprt, 0xff, 0xff, 0xff, 0xff}) // oversized declaration
	f.Add([]byte{FrameChal, 0x10, 0x00, 0x00, 0x00}) // truncated payload

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		typ, payload, err := ReadFrame(r)
		if err != nil {
			return
		}
		consumed := len(data) - r.Len()
		if got := frameSeed(typ, payload); !bytes.Equal(got, data[:consumed]) {
			t.Fatalf("re-encode mismatch: parsed (%d, %d B) from %x", typ, len(payload), data[:consumed])
		}
	})
}

// FuzzParseBusy checks the BUSY retry-after payload parser never panics,
// never returns a negative hint, and round-trips every payload it
// accepts (the all-zero hint canonicalizes to the legacy empty payload).
func FuzzParseBusy(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeBusy(time.Millisecond))
	f.Add(EncodeBusy(30 * time.Second))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ParseBusy(data)
		if err != nil {
			if d != 0 {
				t.Fatalf("error with non-zero hint %v", d)
			}
			return
		}
		if d < 0 {
			t.Fatalf("negative retry-after %v from %x", d, data)
		}
		reenc := EncodeBusy(d)
		if d == 0 {
			if reenc != nil {
				t.Fatalf("zero hint re-encoded to %x", reenc)
			}
			return
		}
		if !bytes.Equal(reenc, data) {
			t.Fatalf("re-encode mismatch: %x -> %v -> %x", data, d, reenc)
		}
	})
}

// FuzzDecodeVerdict checks the VRDT payload parser never panics and
// round-trips what it accepts.
func FuzzDecodeVerdict(f *testing.F) {
	f.Add(EncodeVerdict(true, verify.ReasonNone, ""))
	f.Add(EncodeVerdict(false, verify.ReasonUnexplained, "no benign path explains the evidence"))
	f.Add([]byte{})
	f.Add([]byte{2})
	f.Add([]byte{0, 0xee})
	f.Fuzz(func(t *testing.T, data []byte) {
		gv, err := DecodeVerdict(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeVerdict(gv.OK, gv.Code, gv.Detail), data) {
			t.Fatalf("re-encode mismatch for %x", data)
		}
	})
}

// FuzzParseHelloID drives the HELO identity parser — the gateway's first
// read of untrusted bytes, whose device field keys journal attribution
// and healing state — with arbitrary payloads: it must never panic, must
// agree with ParseHello on the app, and what it accepts must re-encode
// to an identical parse (and to the same bytes whenever a device is
// present). Seeds live in testdata/fuzz/FuzzParseHelloID
// (tools/fuzzcorpus).
func FuzzParseHelloID(f *testing.F) {
	f.Add(EncodeHelloID("prime", "device-00042"))
	f.Add(EncodeHelloID("prime", ""))
	f.Add([]byte{})
	f.Add([]byte{0x01, 'g', 'p', 's'})           // stale protocol version
	f.Add([]byte{0x02, 0x00, 'd', 'e', 'v'})     // empty app, device only
	f.Add([]byte{0x02, 'a', 0x00, 'b', 0x00, 0}) // NULs inside the device field
	f.Fuzz(func(t *testing.T, payload []byte) {
		app, device, err := ParseHelloID(payload)
		app2, err2 := ParseHello(payload)
		if (err == nil) != (err2 == nil) || app != app2 {
			t.Fatalf("ParseHello disagrees: (%q, %v) vs (%q, %v)", app2, err2, app, err)
		}
		if err != nil {
			return
		}
		reenc := EncodeHelloID(app, device)
		if a, d, err := ParseHelloID(reenc); err != nil || a != app || d != device {
			t.Fatalf("re-parse of %x: (%q, %q, %v), want (%q, %q)", reenc, a, d, err, app, device)
		}
		if device != "" && !bytes.Equal(reenc, payload) {
			t.Fatalf("re-encode mismatch: %x -> %x", payload, reenc)
		}
	})
}
