package speccfa

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"raptrack/internal/trace"
)

// mineAlphabet holds packets whose encodings differ in different byte
// positions, so that ties on saving and length are broken by the wire
// encoding's byte order, which is not the packets' integer order.
var mineAlphabet = [...]trace.Packet{
	{Src: 0x0000_0100, Dst: 0x0000_0001},
	{Src: 0x0000_0001, Dst: 0x0000_0100},
	{Src: 0x0100_0000, Dst: 0x0000_0001},
	{Src: 0x0000_0001, Dst: 0x0001_0000},
	{Src: 0x0800_0204, Dst: 0x0800_0110},
	{Src: 0x0800_0110, Dst: 0x0800_0204},
	{Src: 0x0000_0100, Dst: 0x0100_0000},
	{Src: 0x00FF_0000, Dst: 0x0000_0000},
}

// mineStream decodes fuzz bytes into a packet stream: the first byte picks
// an alphabet of 1-8 packets (small alphabets force ties), and each later
// byte is one packet — a marker when its low nibble is 0xF, otherwise an
// alphabet packet.
func mineStream(data []byte) []trace.Packet {
	if len(data) == 0 {
		return nil
	}
	size := 1 + int(data[0]%uint8(len(mineAlphabet)))
	stream := make([]trace.Packet, 0, len(data)-1)
	for _, b := range data[1:] {
		if b&0x0F == 0x0F {
			stream = append(stream, trace.Packet{Src: MarkerBase | uint32(b>>4&3), Dst: 1 + uint32(b>>6)})
			continue
		}
		stream = append(stream, mineAlphabet[int(b)%size])
	}
	return stream
}

// mineMismatch returns why Mine and ReferenceMine disagree on one input,
// or "" when they return identical paths.
func mineMismatch(stream []trace.Packet, maxPaths, minLen, maxLen int) string {
	got, gerr := Mine(stream, maxPaths, minLen, maxLen)
	want, werr := ReferenceMine(stream, maxPaths, minLen, maxLen)
	if (gerr == nil) != (werr == nil) {
		return fmt.Sprintf("error %v, reference %v", gerr, werr)
	}
	if !slices.EqualFunc(got.Paths(), want.Paths(), func(a, b SubPath) bool {
		return a.ID == b.ID && slices.Equal(a.Packets, b.Packets)
	}) {
		return fmt.Sprintf("paths\n got %v\nwant %v", got.Paths(), want.Paths())
	}
	return ""
}

// TestMineMatchesReference: on random small-alphabet streams with marker
// packets and random argument tuples — out-of-range ones included — Mine
// returns exactly the reference's dictionary.
func TestMineMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for i := 0; i < 2000; i++ {
		data := make([]byte, r.Intn(160))
		r.Read(data)
		stream := mineStream(data)
		maxPaths, minLen, maxLen := r.Intn(300)-20, r.Intn(14)-2, r.Intn(24)-2
		if msg := mineMismatch(stream, maxPaths, minLen, maxLen); msg != "" {
			t.Fatalf("case %d Mine(%d packets, %d, %d, %d): %s", i, len(stream), maxPaths, minLen, maxLen, msg)
		}
	}
}

// TestMineMatchesReferenceEdges pins argument tuples at the clamps: windows
// longer than the stream, minLen above maxLen, and a loop long enough that
// every length ties on saving.
func TestMineMatchesReferenceEdges(t *testing.T) {
	var loop []trace.Packet
	for i := 0; i < 64; i++ {
		loop = append(loop, mineAlphabet[i%4])
	}
	short := loop[:5]
	for _, tc := range []struct {
		stream                   []trace.Packet
		maxPaths, minLen, maxLen int
	}{
		{nil, 8, 2, 8},
		{short, 8, 2, 1 << 12},
		{short, 8, 6, 8},
		{short, 8, 9, 3},
		{loop, 0, 0, 0},
		{loop, 1, 2, 64},
		{loop, MaxPaths, 2, 65},
		{loop, MaxPaths + 1, 3, 40},
	} {
		if msg := mineMismatch(tc.stream, tc.maxPaths, tc.minLen, tc.maxLen); msg != "" {
			t.Errorf("Mine(%d packets, %d, %d, %d): %s", len(tc.stream), tc.maxPaths, tc.minLen, tc.maxLen, msg)
		}
	}
}

// FuzzMineDifferential: for any stream and argument tuple, Mine returns
// exactly the reference's dictionary.
func FuzzMineDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 2, 1, 2}, int16(8), int8(2), int8(8))
	f.Add([]byte{3, 0, 1, 2, 3, 0, 1, 2, 3, 0x0F, 0, 1, 2, 3, 0, 1}, int16(4), int8(2), int8(12))
	f.Add([]byte{7, 5, 6, 7, 5, 6, 7, 0x4F, 5, 6, 7, 5, 6, 7, 5}, int16(300), int8(-1), int8(-5))
	f.Add([]byte{1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 1, 0}, int16(1), int8(3), int8(2))
	f.Fuzz(func(t *testing.T, data []byte, maxPaths int16, minLen, maxLen int8) {
		// The reference sorts candidates in quadratic time: keep it fast.
		if len(data) > 512 {
			data = data[:512]
		}
		stream := mineStream(data)
		if msg := mineMismatch(stream, int(maxPaths), int(minLen), int(maxLen)); msg != "" {
			t.Fatalf("Mine(%d packets, %d, %d, %d): %s", len(stream), maxPaths, minLen, maxLen, msg)
		}
	})
}
