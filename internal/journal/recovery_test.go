// Crash-recovery matrix: every row damages a journal on disk in a
// specific way and asserts recover-or-detect — a torn tail is truncated
// and the durable prefix survives byte-for-byte, while any in-chain
// damage is refused (or quarantined, by policy) and NEVER silently
// accepted. The seeded disk-fault schedules (short writes, fsync
// bursts, power-loss torn tails) live in internal/faults/disk_test.go;
// this file covers the surgically precise cases.
package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildJournal writes n verdict records (tiny segments when rotate is
// set) and returns the directory plus the clean scan for ground truth.
func buildJournal(t *testing.T, n int, rotate bool) (string, ScanReport) {
	t.Helper()
	dir := t.TempDir()
	opts := Options{Fsync: SyncNever}
	if rotate {
		opts.SegmentBytes = 512
	}
	j := mustOpen(t, dir, opts)
	for i := 0; i < n; i++ {
		if err := j.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := ScanDir(nil, dir)
	if err != nil || rep.Break != nil || len(rep.Records) != n {
		t.Fatalf("ground truth scan: %d records, break=%v, err=%v", len(rep.Records), rep.Break, err)
	}
	return dir, rep
}

func finalSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		t.Fatal("no segments")
	}
	return names[len(names)-1] // ReadDir sorts; base-seq order == lexical order
}

// assertPrefix fails unless got is exactly the first len(got) records of
// want — same sequence numbers, hashes and payload bytes.
func assertPrefix(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) > len(want) {
		t.Fatalf("recovered %d records, more than the %d written", len(got), len(want))
	}
	for i := range got {
		if got[i].Seq != want[i].Seq || got[i].Hash != want[i].Hash ||
			got[i].Detail != want[i].Detail {
			t.Fatalf("recovered record %d differs from what was written:\n got %+v\nwant %+v",
				i, got[i], want[i])
		}
	}
}

func TestRecoveryTornLastRecord(t *testing.T) {
	for _, cut := range []int{1, 3, frameHeaderSize, frameHeaderSize + 17} {
		t.Run(fmt.Sprintf("keep%dB", cut), func(t *testing.T) {
			dir, truth := buildJournal(t, 10, false)
			seg := filepath.Join(dir, finalSegment(t, dir))
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			// Re-locate the last record's frame start and cut mid-frame.
			off := segmentHeaderSize
			last := off
			for off < len(data) {
				_, next, state, _ := parseFrame(data, off)
				if state != frameComplete {
					break
				}
				last = off
				off = next
			}
			if err := os.Truncate(seg, int64(last+cut)); err != nil {
				t.Fatal(err)
			}

			j := mustOpen(t, dir, Options{})
			c := j.Counters()
			if c.Truncated != 1 || c.ChainBreaks != 0 || c.Recovered != 9 {
				t.Fatalf("counters = %+v", c)
			}
			// The journal appends cleanly at the truncated head.
			if err := j.Append(testEntry(99)); err != nil {
				t.Fatal(err)
			}
			if j.NextSeq() != 11 {
				t.Fatalf("next seq %d, want 11", j.NextSeq())
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			rep, err := ScanDir(nil, dir)
			if err != nil || rep.Break != nil || len(rep.Records) != 10 {
				t.Fatalf("post-recovery scan: %d records, break=%v, err=%v", len(rep.Records), rep.Break, err)
			}
			assertPrefix(t, rep.Records[:9], truth.Records)
		})
	}
}

func TestRecoveryTruncatedSegmentHeader(t *testing.T) {
	dir, _ := buildJournal(t, 10, false)
	seg := filepath.Join(dir, finalSegment(t, dir))
	if err := os.Truncate(seg, segmentHeaderSize-10); err != nil {
		t.Fatal(err)
	}
	// Segment creation is atomic (temp+rename with the header synced), so
	// a short header can only mean damage — detected, never accepted.
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("open accepted a truncated segment header")
	} else if !strings.Contains(err.Error(), "broken chain") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestRecoveryBitFlipMidChain(t *testing.T) {
	dir, truth := buildJournal(t, 20, true)
	// Flip one bit inside the SECOND segment: damage with valid records
	// both before and after — unambiguously corruption, not a torn tail.
	entries, _ := os.ReadDir(dir)
	var segs []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) < 3 {
		t.Fatalf("want >=3 segments, have %d", len(segs))
	}
	target := filepath.Join(dir, segs[1])
	data, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	data[segmentHeaderSize+frameHeaderSize+30] ^= 0x04
	if err := os.WriteFile(target, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Policy RefuseOpen: the default answer to tampering is to stop.
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("open accepted a flipped bit mid-chain")
	} else {
		var ce *ChainError
		if !errors.As(err, &ce) || ce.Segment != segs[1] {
			t.Fatalf("error %v does not pinpoint %s", err, segs[1])
		}
	}

	// Policy Quarantine: resume from the verified prefix, damage kept on
	// disk for forensics, nothing silently deleted.
	j, err := Open(dir, Options{OnChainBreak: Quarantine})
	if err != nil {
		t.Fatal(err)
	}
	c := j.Counters()
	if c.ChainBreaks != 1 || c.Quarantined < 2 {
		t.Fatalf("counters = %+v", c)
	}
	firstBase, _ := parseSegmentName(segs[1])
	if j.NextSeq() != firstBase {
		t.Fatalf("resumed at seq %d, want %d", j.NextSeq(), firstBase)
	}
	if err := j.Append(testEntry(7)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	quarantined := 0
	entries, _ = os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".quarantined") {
			quarantined++
		}
	}
	if quarantined < 2 {
		t.Fatalf("%d quarantined files on disk, want the damaged suffix", quarantined)
	}
	rep, err := ScanDir(nil, dir)
	if err != nil || rep.Break != nil {
		t.Fatalf("post-quarantine scan: break=%v, err=%v", rep.Break, err)
	}
	if len(rep.Records) != int(firstBase) {
		t.Fatalf("post-quarantine records %d, want %d (prefix + 1 fresh)", len(rep.Records), firstBase)
	}
	assertPrefix(t, rep.Records[:firstBase-1], truth.Records)
}

func TestRecoveryRotationInterrupted(t *testing.T) {
	// Crash window: the new segment was renamed into place but the
	// manifest was not yet updated to list the old one as sealed. The
	// scan re-derives the sealed set from the segments themselves.
	dir, truth := buildJournal(t, 20, true)
	stale := manifest{} // pretend the manifest write never happened
	if err := writeManifest(OSFS, dir, stale); err != nil {
		t.Fatal(err)
	}
	j := mustOpen(t, dir, Options{})
	if c := j.Counters(); c.ChainBreaks != 0 || c.Recovered != 20 {
		t.Fatalf("counters = %+v", c)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Open repaired the manifest.
	m := loadManifest(OSFS, dir)
	if len(m.Sealed) == 0 {
		t.Fatal("manifest not rebuilt after interrupted rotation")
	}
	rep, err := ScanDir(nil, dir)
	if err != nil || rep.Break != nil {
		t.Fatalf("scan after repair: break=%v, err=%v", rep.Break, err)
	}
	assertPrefix(t, rep.Records, truth.Records)
}

func TestRecoverySealedSegmentDeleted(t *testing.T) {
	// Either end the manifest lists: the oldest evidence, or the newest
	// sealed segment.
	for _, end := range []int{0, 1} {
		t.Run(fmt.Sprintf("end%d", end), func(t *testing.T) {
			dir, _ := buildJournal(t, 20, true)
			m := loadManifest(OSFS, dir)
			if len(m.Sealed) != 2 {
				t.Fatalf("manifest lists %d sealed segments, want 2", len(m.Sealed))
			}
			victim := m.Sealed[end].Name
			if err := os.Remove(filepath.Join(dir, victim)); err != nil {
				t.Fatal(err)
			}
			// Deleting evidence must never look like a fresh journal.
			if _, err := Open(dir, Options{}); err == nil {
				t.Fatal("open accepted a deleted sealed segment")
			} else if !strings.Contains(err.Error(), "missing") {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
}

// TestRecoveryMiddleSealedSegmentDeleted: the manifest lists only the
// two ends of the sealed run, so a segment deleted between them is
// caught by the chain itself — the next segment's header does not
// continue from what precedes the gap.
func TestRecoveryMiddleSealedSegmentDeleted(t *testing.T) {
	dir, _ := buildJournal(t, 30, true)
	m := loadManifest(OSFS, dir)
	if len(m.Sealed) != 2 || m.Sealed[1].BaseSeq <= m.Sealed[0].LastSeq+1 {
		t.Fatalf("want at least three sealed segments, manifest lists %+v", m.Sealed)
	}
	victim := segmentName(m.Sealed[0].LastSeq + 1)
	if err := os.Remove(filepath.Join(dir, victim)); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{})
	var ce *ChainError
	if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "does not continue the chain") {
		t.Fatalf("open after deleting %s: %v", victim, err)
	}
}

func TestRecoveryStrayTempFilesRemoved(t *testing.T) {
	dir, truth := buildJournal(t, 5, false)
	// An interrupted atomic write leaves a temp file; it was never part
	// of the chain and Open clears it.
	stray := filepath.Join(dir, "MANIFEST.tmp")
	if err := os.WriteFile(stray, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	j := mustOpen(t, dir, Options{})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray temp file survived recovery: %v", err)
	}
	rep, err := ScanDir(nil, dir)
	if err != nil || rep.Break != nil {
		t.Fatalf("scan: break=%v, err=%v", rep.Break, err)
	}
	assertPrefix(t, rep.Records, truth.Records)
}
