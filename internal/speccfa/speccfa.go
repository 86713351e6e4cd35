// Package speccfa implements speculative sub-path compression of CFLog
// evidence, in the spirit of SpecCFA (Caulfield et al., ACSAC 2024), which
// the paper cites as the remedy for CFA's communication bottleneck (§V-B:
// "CFLog size directly impacts communication overhead/latency, often
// becoming the system's primary bottleneck [57]").
//
// The Verifier provisions a dictionary of speculated packet sub-paths
// (typically mined from a previous verified session). The Prover's CFA
// engine, before signing each report window, replaces maximal runs of
// matched sub-paths with one 8-byte marker packet carrying the path id and
// the repeat count. Loop-dominated evidence (per-iteration packets all
// alike) collapses dramatically. Decompression is exact, so verification
// remains lossless; a stream without markers decompresses to itself, so
// the Verifier can apply expansion unconditionally.
//
// Marker packets use source addresses in [MarkerBase, MarkerBase+256),
// a range that can never hold application code (the NS code window is far
// below it), so markers cannot collide with genuine evidence.
package speccfa

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"raptrack/internal/trace"
)

// MarkerBase is the source-address namespace for marker packets.
const MarkerBase uint32 = 0xFF00_0000

// MaxPaths is the dictionary capacity (path ids are one byte).
const MaxPaths = 256

// SubPath is one speculated packet subsequence.
type SubPath struct {
	ID      byte
	Packets []trace.Packet
}

// Dictionary is a Verifier-provisioned speculation set. Construct with
// NewDictionary or Mine.
type Dictionary struct {
	paths []SubPath
}

// NewDictionary builds a dictionary from packet subsequences, assigning
// ids in order. Paths must have length >= 2 (a 1-packet path cannot save
// anything) and must not contain marker-range sources.
func NewDictionary(paths ...[]trace.Packet) (*Dictionary, error) {
	if len(paths) > MaxPaths {
		return nil, fmt.Errorf("speccfa: %d paths exceed the %d-entry dictionary", len(paths), MaxPaths)
	}
	d := &Dictionary{}
	for i, p := range paths {
		if len(p) < 2 {
			return nil, fmt.Errorf("speccfa: path %d has %d packets (need >= 2)", i, len(p))
		}
		for _, pkt := range p {
			if pkt.Src >= MarkerBase {
				return nil, fmt.Errorf("speccfa: path %d contains a marker-range source %#x", i, pkt.Src)
			}
		}
		d.paths = append(d.paths, SubPath{ID: byte(i), Packets: append([]trace.Packet(nil), p...)})
	}
	// Longest-first matching maximizes savings.
	for i := 1; i < len(d.paths); i++ {
		for j := i; j > 0 && len(d.paths[j].Packets) > len(d.paths[j-1].Packets); j-- {
			d.paths[j], d.paths[j-1] = d.paths[j-1], d.paths[j]
		}
	}
	return d, nil
}

// Len returns the number of dictionary paths.
func (d *Dictionary) Len() int {
	if d == nil {
		return 0
	}
	return len(d.paths)
}

// Paths returns the dictionary contents (read-only use).
func (d *Dictionary) Paths() []SubPath {
	if d == nil {
		return nil
	}
	return d.paths
}

// matchAt reports whether path p occurs in stream at position i.
func matchAt(stream []trace.Packet, i int, p []trace.Packet) bool {
	if i+len(p) > len(stream) {
		return false
	}
	for k, pk := range p {
		if stream[i+k] != pk {
			return false
		}
	}
	return true
}

// Compress replaces maximal non-overlapping runs of dictionary sub-paths
// with marker packets {Src: MarkerBase|id, Dst: repeatCount}. A nil
// dictionary returns the input unchanged.
func (d *Dictionary) Compress(stream []trace.Packet) []trace.Packet {
	if d.Len() == 0 {
		return stream
	}
	out := make([]trace.Packet, 0, len(stream))
	for i := 0; i < len(stream); {
		var hit *SubPath
		for pi := range d.paths {
			if matchAt(stream, i, d.paths[pi].Packets) {
				hit = &d.paths[pi]
				break
			}
		}
		if hit == nil {
			out = append(out, stream[i])
			i++
			continue
		}
		n := len(hit.Packets)
		repeats := uint32(1)
		for matchAt(stream, i+int(repeats)*n, hit.Packets) {
			repeats++
		}
		out = append(out, trace.Packet{Src: MarkerBase | uint32(hit.ID), Dst: repeats})
		i += int(repeats) * n
	}
	return out
}

// ErrUnknownMarker is wrapped by Decompress for markers outside the
// dictionary (evidence from a mismatched provisioning).
var ErrUnknownMarker = fmt.Errorf("speccfa: unknown sub-path marker")

// Decompress expands marker packets. It is exact: for any stream s,
// Decompress(Compress(s)) == s. Expansion is capped to guard against a
// forged repeat count blowing up verifier memory.
func (d *Dictionary) Decompress(stream []trace.Packet) ([]trace.Packet, error) {
	const maxExpanded = 1 << 24 // packets (128 MiB of evidence)
	out := make([]trace.Packet, 0, len(stream))
	for _, p := range stream {
		if p.Src < MarkerBase {
			out = append(out, p)
			continue
		}
		id := int(p.Src & 0xff)
		var sub *SubPath
		for pi := range d.Paths() {
			if int(d.paths[pi].ID) == id {
				sub = &d.paths[pi]
				break
			}
		}
		if sub == nil {
			return nil, fmt.Errorf("%w: id %d", ErrUnknownMarker, id)
		}
		total := uint64(p.Dst) * uint64(len(sub.Packets))
		if uint64(len(out))+total > maxExpanded {
			return nil, fmt.Errorf("speccfa: expansion exceeds %d packets", maxExpanded)
		}
		for r := uint32(0); r < p.Dst; r++ {
			out = append(out, sub.Packets...)
		}
	}
	return out, nil
}

// Mine derives a dictionary from an observed packet stream (typically the
// Verifier's reconstruction input from a previous accepted session): it
// scores subsequences of length minLen..maxLen by the bytes a compression
// pass would save and keeps the best non-redundant maxPaths of them.
//
// Counting allocates nothing per window. Windows are numbered by length,
// shortest first: two windows of length l are equal exactly when their
// prefixes and suffixes of length l-1 are, so the pair of those classes
// is an exact integer key. A window that occurs once cannot grow into one
// that occurs twice, so it drops out of the longer lengths. A candidate
// is a span of the stream, copied only if the dictionary keeps it.
func Mine(stream []trace.Packet, maxPaths, minLen, maxLen int) (*Dictionary, error) {
	if maxPaths <= 0 || maxPaths > MaxPaths {
		maxPaths = 16
	}
	if minLen < 2 {
		minLen = 2
	}
	if maxLen < minLen {
		maxLen = minLen
	}
	// No window is longer than the stream.
	maxLen = min(maxLen, len(stream))

	type cand struct {
		first, n int // stream[first : first+n]
		saving   int
	}
	var (
		cands []cand
		// cls[i] is the class of the window of the current length at i,
		// or -1 when the window is not minable or occurs only once.
		// Windows overlapping a marker-range source are not minable:
		// markers stand for already-compressed sub-paths, and a
		// dictionary path may never contain one.
		cls         = make([]int32, len(stream))
		ids         = make(map[uint64]int32) // window key -> class
		count, prev []int32                  // occurrences per class, this length and the last
		first       []int32                  // first occurrence per class
	)
	for l := 1; l <= maxLen; l++ {
		clear(ids)
		prev, count, first = count, prev[:0], first[:0]
		for i := 0; i+l <= len(stream); i++ {
			var key uint64
			if l == 1 {
				if stream[i].Src >= MarkerBase {
					cls[i] = -1
					continue
				}
				key = uint64(stream[i].Src)<<32 | uint64(stream[i].Dst)
			} else {
				// cls[i+1] still holds its length l-1 class.
				pre, suf := cls[i], cls[i+1]
				if pre < 0 || suf < 0 || prev[pre] < 2 || prev[suf] < 2 {
					cls[i] = -1
					continue
				}
				key = uint64(pre)<<32 | uint64(suf)
			}
			id, ok := ids[key]
			if !ok {
				id = int32(len(count))
				ids[key] = id
				count = append(count, 0)
				first = append(first, int32(i))
			}
			count[id]++
			cls[i] = id
		}
		if l < minLen {
			continue
		}
		for id, n := range count {
			if n >= 2 {
				// A run of n occurrences collapses to one marker packet.
				cands = append(cands, cand{first: int(first[id]), n: l, saving: (int(n)*l - 1) * trace.PacketSize})
			}
		}
	}
	// Highest saving first, then longest, then by wire encoding: a total
	// order, since candidates of one length are distinct windows.
	slices.SortFunc(cands, func(a, b cand) int {
		if a.saving != b.saving {
			return cmp.Compare(b.saving, a.saving)
		}
		if a.n != b.n {
			return cmp.Compare(b.n, a.n)
		}
		return compareEncoded(stream[a.first:a.first+a.n], stream[b.first:b.first+b.n])
	})
	var chosen [][]trace.Packet
	for _, c := range cands {
		if len(chosen) >= maxPaths {
			break
		}
		// Skip candidates that are substrings of an already-chosen path
		// (the longer path subsumes them under longest-first matching).
		seq := stream[c.first : c.first+c.n]
		if !slices.ContainsFunc(chosen, func(ch []trace.Packet) bool { return containsSub(ch, seq) }) {
			chosen = append(chosen, seq)
		}
	}
	// NewDictionary copies the paths out of the stream.
	return NewDictionary(chosen...)
}

// compareEncoded orders packet sequences as bytes.Compare orders their
// pipeline.EncodeMTB encodings (little-endian Src then Dst), without
// encoding them: byte-reversing a word makes its integer order its
// little-endian byte order.
func compareEncoded(a, b []trace.Packet) int {
	for k := range min(len(a), len(b)) {
		if c := cmp.Compare(bits.ReverseBytes32(a[k].Src), bits.ReverseBytes32(b[k].Src)); c != 0 {
			return c
		}
		if c := cmp.Compare(bits.ReverseBytes32(a[k].Dst), bits.ReverseBytes32(b[k].Dst)); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

func containsSub(haystack, needle []trace.Packet) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if matchAt(haystack, i, needle) {
			return true
		}
	}
	return false
}
