// Command fuzzcorpus regenerates the checked-in seed corpora under each
// package's testdata/fuzz/<Target>/ directory. Seeds complement the
// in-code f.Add entries with boundary and wire-level edge cases (header
// limits, truncations, canonical encodings of real protocol objects), so
// CI's fuzz smoke runs — and anyone running `go test -fuzz` locally —
// start from inputs that already reach deep parser states.
//
// Run from the repository root:
//
//	go run ./tools/fuzzcorpus
//
// Output is deterministic except where noted (signed reports embed a
// fresh HMAC; the parsers under fuzz never verify signatures, so the
// nondeterminism is irrelevant to coverage, and files are only rewritten
// when regenerated explicitly).
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"raptrack/internal/attest"
	"raptrack/internal/remote"
	"raptrack/internal/trace"
	"raptrack/internal/trace/pipeline"
	"raptrack/internal/verify"
)

// corpusEntry renders one []byte input in the "go test fuzz v1" format.
func corpusEntry(data []byte) []byte {
	return []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n")
}

func writeCorpus(dir string, seeds map[string][]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, data := range seeds {
		if err := os.WriteFile(filepath.Join(dir, name), corpusEntry(data), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func frame(typ byte, payload []byte) []byte {
	var b bytes.Buffer
	if err := remote.WriteFrame(&b, typ, payload); err != nil {
		panic(err)
	}
	return b.Bytes()
}

func main() {
	chal, err := attest.NewChallenge("prime")
	if err != nil {
		panic(err)
	}
	key, err := attest.GenerateHMACKey()
	if err != nil {
		panic(err)
	}
	report := &attest.Report{
		App:   "prime",
		Nonce: chal.Nonce,
		Seq:   3,
		Final: true,
		CFLog: pipeline.EncodeMTB([]trace.Packet{{Src: 0x200010, Dst: 0x200040}, {Src: 0x200052, Dst: 0x200014}}),
	}
	if err := attest.SignReport(report, key); err != nil {
		panic(err)
	}

	oversized := make([]byte, remote.FrameHeaderSize)
	oversized[0] = remote.FrameRprt
	binary.LittleEndian.PutUint32(oversized[1:], remote.MaxFrame+1)
	exact := frame(remote.FrameFail, bytes.Repeat([]byte{'x'}, 64))

	corpora := map[string]map[string][]byte{
		"internal/remote/testdata/fuzz/FuzzReadFrame": {
			"seed-chal":       frame(remote.FrameChal, chal.Encode()),
			"seed-rprt":       frame(remote.FrameRprt, report.Encode()),
			"seed-helo":       frame(remote.FrameHello, remote.EncodeHello("quicksort")),
			"seed-busy-hint":  frame(remote.FrameBusy, remote.EncodeBusy(250*time.Millisecond)),
			"seed-vrdt":       frame(remote.FrameVerdict, remote.EncodeVerdict(false, verify.ReasonROP, "return destination mismatch")),
			"seed-dict":       frame(remote.FrameDict, []byte{1, 2, 0x10, 0, 0x20, 0}),
			"seed-oversized":  oversized,
			"seed-short-head": {remote.FrameChal, 0x10, 0x00},
			"seed-trunc-body": append([]byte{}, exact[:remote.FrameHeaderSize+8]...),
			"seed-zero-len":   frame(remote.FrameBusy, nil),
			"seed-unknown":    frame(0x7f, []byte("?")),
		},
		"internal/remote/testdata/fuzz/FuzzParseBusy": {
			"seed-empty":    {},
			"seed-min-hint": remote.EncodeBusy(time.Millisecond),
			"seed-max-u32":  {0xff, 0xff, 0xff, 0xff},
			"seed-zero":     {0, 0, 0, 0},
			"seed-short":    {1, 2, 3},
			"seed-long":     {1, 0, 0, 0, 9},
		},
		"internal/remote/testdata/fuzz/FuzzDecodeVerdict": {
			"seed-ok":         remote.EncodeVerdict(true, verify.ReasonNone, ""),
			"seed-reject":     remote.EncodeVerdict(false, verify.ReasonJOP, "indirect call to non-entry"),
			"seed-inconc":     remote.EncodeVerdict(false, verify.ReasonInconclusive, "detectable trace loss"),
			"seed-bad-flag":   {7},
			"seed-bad-reason": {0, 0xee},
			"seed-empty":      {},
		},
		"internal/attest/testdata/fuzz/FuzzDecodeReport": {
			"seed-signed":    report.Encode(),
			"seed-zero":      (&attest.Report{}).Encode(),
			"seed-partial":   (&attest.Report{App: "gps", Seq: 7, Wraps: 2, Dropped: 1}).Encode(),
			"seed-empty":     {},
			"seed-garbage":   bytes.Repeat([]byte{0xa5}, 40),
			"seed-trunc-sig": report.Encode()[:len(report.Encode())-8],
		},
		"internal/attest/testdata/fuzz/FuzzDecodeChallenge": {
			"seed-chal":    chal.Encode(),
			"seed-noapp":   attest.Challenge{}.Encode(),
			"seed-empty":   {},
			"seed-garbage": bytes.Repeat([]byte{0xff}, attest.NonceSize+4),
		},
		// FuzzParseHelloID inputs: a raw HELO payload (not framed).
		"internal/remote/testdata/fuzz/FuzzParseHelloID": {
			"seed-full-id":   remote.EncodeHelloID("prime", "device-00042"),
			"seed-app-only":  remote.EncodeHello("gps"),
			"seed-no-sep":    {0x02, 'p', 'r', 'i', 'm', 'e'},
			"seed-sep-only":  {0x02, 0x00},
			"seed-stale-ver": {0x01, 'p'},
			"seed-long-dev":  remote.EncodeHelloID("crc32", string(bytes.Repeat([]byte{'d'}, 200))),
			"seed-utf8-dev":  remote.EncodeHelloID("prime", "dévice-π"),
			"seed-empty":     {},
		},
		// FuzzPipelineDecode inputs: a leading format-selector byte
		// (even: MTB, odd: TRACES) followed by the stream bytes.
		"internal/trace/pipeline/testdata/fuzz/FuzzPipelineDecode": {
			"seed-mtb-chain":    append([]byte{0}, report.CFLog...),
			"seed-mtb-ragged":   append([]byte{0}, report.CFLog[:len(report.CFLog)-3]...),
			"seed-mtb-strays":   append([]byte{0}, report.CFLog[:len(report.CFLog)-6]...),
			"seed-traces-log":   append([]byte{1}, pipeline.EncodeTRACES([]uint32{0x200040, 0x200014, 0x200052})...),
			"seed-traces-short": append([]byte{1}, pipeline.EncodeTRACES([]uint32{0x200040, 0x200014})[:9]...),
			"seed-traces-trail": append([]byte{1}, append(pipeline.EncodeTRACES([]uint32{0x200040}), 0xAA, 0xBB, 0xCC, 0xDD)...),
			"seed-traces-huge":  append([]byte{1}, 0xFF, 0xFF, 0xFF, 0x7F),
			"seed-header-only":  {1},
		},
	}

	for dir, seeds := range corpora {
		if err := writeCorpus(dir, seeds); err != nil {
			panic(err)
		}
		fmt.Printf("wrote %d seeds to %s\n", len(seeds), dir)
	}
}
