package speccfa

import (
	"raptrack/internal/trace"
	"raptrack/internal/trace/pipeline"
)

// ReferenceMine is the string-keyed Mine that the allocation-free one
// replaced, kept verbatim as the oracle of the differential tests: the
// production Mine must return a dictionary with identical Paths() for
// every input and argument tuple.
func ReferenceMine(stream []trace.Packet, maxPaths, minLen, maxLen int) (*Dictionary, error) {
	if maxPaths <= 0 || maxPaths > MaxPaths {
		maxPaths = 16
	}
	if minLen < 2 {
		minLen = 2
	}
	if maxLen < minLen {
		maxLen = minLen
	}
	type cand struct {
		seq    []trace.Packet
		saving int
	}
	var cands []cand
	// Windows overlapping a marker-range source are not minable: markers
	// stand for already-compressed sub-paths, and a dictionary path may
	// never contain one. nextMarker[i] is the smallest j >= i with a
	// marker at j (len(stream) when none), so each window is a range check.
	nextMarker := make([]int, len(stream)+1)
	nextMarker[len(stream)] = len(stream)
	for i := len(stream) - 1; i >= 0; i-- {
		if stream[i].Src >= MarkerBase {
			nextMarker[i] = i
		} else {
			nextMarker[i] = nextMarker[i+1]
		}
	}
	for l := maxLen; l >= minLen; l-- {
		counts := make(map[string]int)
		firsts := make(map[string]int)
		for i := 0; i+l <= len(stream); i++ {
			if nextMarker[i] < i+l {
				continue
			}
			key := referencePacketsKey(stream[i : i+l])
			if _, ok := firsts[key]; !ok {
				firsts[key] = i
			}
			counts[key]++
		}
		for key, n := range counts {
			if n < 2 {
				continue
			}
			// A run of n occurrences collapses to one marker packet.
			saving := (n*l - 1) * trace.PacketSize
			cands = append(cands, cand{
				seq:    append([]trace.Packet(nil), stream[firsts[key]:firsts[key]+l]...),
				saving: saving,
			})
		}
	}
	// Highest saving first (stable, deterministic tiebreak by key).
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && referenceBetter(cands[j], cands[j-1]); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	var chosen [][]trace.Packet
	for _, c := range cands {
		if len(chosen) >= maxPaths {
			break
		}
		// Skip candidates that are substrings of an already-chosen path
		// (the longer path subsumes them under longest-first matching).
		redundant := false
		for _, ch := range chosen {
			if containsSub(ch, c.seq) {
				redundant = true
				break
			}
		}
		if !redundant {
			chosen = append(chosen, c.seq)
		}
	}
	return NewDictionary(chosen...)
}

func referenceBetter(a, b struct {
	seq    []trace.Packet
	saving int
}) bool {
	if a.saving != b.saving {
		return a.saving > b.saving
	}
	if len(a.seq) != len(b.seq) {
		return len(a.seq) > len(b.seq)
	}
	return referencePacketsKey(a.seq) < referencePacketsKey(b.seq)
}

func referencePacketsKey(ps []trace.Packet) string {
	return string(pipeline.EncodeMTB(ps))
}
