package verify

import "raptrack/internal/trace"

// Diag runs the search and reports memo geometry (diagnostic/benchmark
// aid): entry count, total outcomes, advance-memo size and abstract work.
func Diag(v *Verifier, packets []trace.Packet) (entries, outcomes, advs int, work uint64) {
	entryPC, _ := v.link.Image.EntryAddr()
	s := v.newSummarizer(packets, nil)
	defer s.release()
	s.solve(entryPC)
	for id := int32(0); id < s.nEntries; id++ {
		outcomes += len(s.entry(id).outs)
	}
	return int(s.nEntries), outcomes, len(s.advMemo), s.work
}
