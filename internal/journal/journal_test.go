// Journal core tests: record framing, append/recover round trips,
// rotation + manifest bookkeeping, batch commits and concurrent appends,
// the atomic-write helper, and degraded-mode shedding. All must pass under
// -race; the crash/corruption matrix lives in recovery_test.go.
package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"raptrack/internal/verify"
)

func testEntry(i int) Entry {
	return Entry{
		Kind:        KindVerdict,
		Time:        time.Unix(1700000000, int64(i)),
		App:         "prime",
		Device:      fmt.Sprintf("127.0.0.1:%d", 40000+i),
		Outcome:     Outcome(i % int(numOutcomes)),
		Code:        verify.ReasonCode(i % 3),
		Detail:      fmt.Sprintf("detail-%d", i),
		DictVersion: uint64(i % 4),
		Payload:     bytes.Repeat([]byte{byte(i)}, 64+i%32),
	}
}

func mustOpen(t *testing.T, dir string, opts Options) *Journal {
	t.Helper()
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestRecordFrameRoundTrip(t *testing.T) {
	r := Record{Entry: testEntry(3), Seq: 7}
	r.PrevHash[0] = 0xAB
	frame, err := r.encode()
	if err != nil {
		t.Fatal(err)
	}
	got, next, state, err := parseFrame(frame, 0)
	if err != nil || state != frameComplete || next != len(frame) {
		t.Fatalf("parseFrame: state=%d next=%d err=%v", state, next, err)
	}
	if got.Seq != 7 || got.PrevHash != r.PrevHash || got.Hash != r.Hash ||
		got.App != r.App || got.Device != r.Device || got.Detail != r.Detail ||
		got.Outcome != r.Outcome || got.Code != r.Code || got.DictVersion != r.DictVersion ||
		!bytes.Equal(got.Payload, r.Payload) || !got.Time.Equal(r.Time) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}

	// Truncations of a valid frame are torn, never complete.
	for _, cut := range []int{1, frameHeaderSize - 1, frameHeaderSize + 1, len(frame) - 1} {
		if _, _, state, _ := parseFrame(frame[:cut], 0); state != frameTorn {
			t.Errorf("cut at %d: state %d, want torn", cut, state)
		}
	}
	// An in-place body flip is corrupt (CRC), never torn.
	mut := append([]byte(nil), frame...)
	mut[frameHeaderSize+20] ^= 0x40
	if _, _, state, _ := parseFrame(mut, 0); state != frameCorrupt {
		t.Errorf("flipped body: state %d, want corrupt", state)
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: SyncNever})
	const n = 40
	var hashes [][32]byte
	for i := 0; i < n; i++ {
		if err := j.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, j.Head())
	}
	if err := j.Append(Entry{Kind: KindDict, App: "prime", DictVersion: 1, Payload: []byte("dict")}); err != nil {
		t.Fatal(err)
	}
	if c := j.Counters(); c.Appended != n+1 || c.Shed != 0 {
		t.Fatalf("counters = %+v", c)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := j.Append(testEntry(0)); err == nil {
		t.Fatal("append after close succeeded")
	}

	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	c := j2.Counters()
	if c.Recovered != n+1 || c.Truncated != 0 || c.ChainBreaks != 0 {
		t.Fatalf("recovery counters = %+v", c)
	}
	if j2.NextSeq() != n+2 {
		t.Fatalf("next seq %d, want %d", j2.NextSeq(), n+2)
	}
	rep, err := ScanDir(nil, dir)
	if err != nil || rep.Break != nil || rep.Torn != nil {
		t.Fatalf("ScanDir: %v %v %v", err, rep.Break, rep.Torn)
	}
	if len(rep.Records) != n+1 {
		t.Fatalf("scanned %d records, want %d", len(rep.Records), n+1)
	}
	for i := 0; i < n; i++ {
		rec := rep.Records[i]
		want := testEntry(i)
		if rec.Seq != uint64(i+1) || rec.Hash != hashes[i] ||
			rec.Device != want.Device || !bytes.Equal(rec.Payload, want.Payload) {
			t.Fatalf("record %d mismatch: %+v", i, rec)
		}
		if i > 0 && rec.PrevHash != rep.Records[i-1].Hash {
			t.Fatalf("record %d does not chain", i)
		}
	}
	if last := rep.Records[n]; last.Kind != KindDict || last.DictVersion != 1 {
		t.Fatalf("dict record = %+v", last)
	}
}

func TestRotationAndManifest(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many rotations.
	j := mustOpen(t, dir, Options{Fsync: SyncNever, SegmentBytes: 512})
	const n = 30
	for i := 0; i < n; i++ {
		if err := j.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	c := j.Counters()
	if c.Rotated < 3 {
		t.Fatalf("rotated %d segments, want several", c.Rotated)
	}
	if got := j.SealedSegments(); uint64(got) != c.Rotated {
		t.Fatalf("sealed %d != rotated %d", got, c.Rotated)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// The manifest lists the two ends of the sealed run, whatever its
	// length: the first segment and the one the active segment follows.
	rep, err := ScanDir(nil, dir)
	if err != nil || rep.Break != nil || uint64(rep.Segments) != c.Rotated+1 {
		t.Fatalf("scan: %d segments, break=%v, err=%v", rep.Segments, rep.Break, err)
	}
	active := finalSegment(t, dir)
	activeBase, _ := parseSegmentName(active)
	m := loadManifest(OSFS, dir)
	if len(m.Sealed) != 2 {
		t.Fatalf("manifest lists %d sealed, want the first and the last", len(m.Sealed))
	}
	if first := m.Sealed[0]; first.Name != segmentName(1) || first.BaseSeq != 1 {
		t.Fatalf("manifest's first sealed segment = %+v", first)
	}
	last := m.Sealed[1]
	if last.LastSeq+1 != activeBase || last.Name == active ||
		last.Head != hashHex(rep.Records[last.LastSeq-1].Hash) {
		t.Fatalf("manifest's last sealed segment %+v does not precede %s", last, active)
	}

	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	if c2 := j2.Counters(); c2.Recovered != n {
		t.Fatalf("recovered %d records across segments, want %d", c2.Recovered, n)
	}
	if err := j2.Append(testEntry(0)); err != nil {
		t.Fatal(err)
	}
	if j2.NextSeq() != n+2 {
		t.Fatalf("next seq %d after cross-segment recovery", j2.NextSeq())
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	for i, content := range []string{"first exposition\n", "second, longer exposition\n"} {
		if err := WriteFileAtomic(nil, path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != content {
			t.Fatalf("write %d: %q, %v", i, got, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("stray temp file %s", e.Name())
		}
	}
}

// TestConcurrentAppendsSerialize: Append stays safe for concurrent use;
// under SyncEach each call is one commit with its own fsync.
func TestConcurrentAppendsSerialize(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: SyncEach})
	const workers, per = 8, 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := j.Append(testEntry(w*per + i)); err != nil {
					t.Errorf("append: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	c := j.Counters()
	if c.Appended != workers*per {
		t.Fatalf("appended %d, want %d", c.Appended, workers*per)
	}
	if c.Fsyncs != c.Appended {
		t.Fatalf("fsyncs %d for %d single-entry appends", c.Fsyncs, c.Appended)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := ScanDir(nil, dir)
	if err != nil || rep.Break != nil || len(rep.Records) != workers*per {
		t.Fatalf("recovery after concurrent appends: %d records, break=%v, err=%v",
			len(rep.Records), rep.Break, err)
	}
}

// TestAppendBatchOneFsync: a batch is one commit — one fsync under
// SyncEach, plus a seal fsync for each rotation it crosses — and an
// entry that does not encode is skipped without losing the rest.
func TestAppendBatchOneFsync(t *testing.T) {
	for _, segBytes := range []int64{0, 512} {
		t.Run(fmt.Sprintf("segment%dB", segBytes), func(t *testing.T) {
			dir := t.TempDir()
			j := mustOpen(t, dir, Options{Fsync: SyncEach, SegmentBytes: segBytes})
			const n = 20
			batch := make([]Entry, n)
			for i := range batch {
				batch[i] = testEntry(i)
			}
			if err := j.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			c := j.Counters()
			if c.Appended != n || c.Fsyncs != c.Rotated+1 {
				t.Fatalf("batch of %d: counters = %+v", n, c)
			}
			if segBytes > 0 && c.Rotated == 0 {
				t.Fatal("batch crossed no rotation")
			}
			if err := j.AppendBatch([]Entry{testEntry(n), {}, testEntry(n + 1)}); !errors.Is(err, ErrBadRecord) {
				t.Fatalf("batch with a zero-kind entry: err = %v", err)
			}
			if c2 := j.Counters(); c2.Appended != n+2 || c2.Fsyncs != c2.Rotated+2 {
				t.Fatalf("after the second batch: counters = %+v", c2)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			rep, err := ScanDir(nil, dir)
			if err != nil || rep.Break != nil || len(rep.Records) != n+2 {
				t.Fatalf("scan: %d records, break=%v, err=%v", len(rep.Records), rep.Break, err)
			}
			for i, rec := range rep.Records {
				if rec.Detail != testEntry(i).Detail {
					t.Fatalf("record %d is %q, want %q", i, rec.Detail, testEntry(i).Detail)
				}
			}
		})
	}
}

// failFS passes writes through until armed, then fails every file write
// and sync — a disk that dies mid-run.
type failFS struct {
	FS
	mu     sync.Mutex
	broken bool
}

func (f *failFS) fail() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.broken
}

func (f *failFS) breakNow() {
	f.mu.Lock()
	f.broken = true
	f.mu.Unlock()
}

func (f *failFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if f.fail() {
		return nil, errors.New("failFS: open")
	}
	inner, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &failFile{File: inner, fs: f}, nil
}

type failFile struct {
	File
	fs *failFS
}

func (f *failFile) Write(p []byte) (int, error) {
	if f.fs.fail() {
		return 0, errors.New("failFS: write")
	}
	return f.File.Write(p)
}

func (f *failFile) Sync() error {
	if f.fs.fail() {
		return errors.New("failFS: sync")
	}
	return f.File.Sync()
}

func TestDegradedModeShedsToRing(t *testing.T) {
	dir := t.TempDir()
	ffs := &failFS{FS: OSFS}
	j := mustOpen(t, dir, Options{FS: ffs, Fsync: SyncNever, RingSize: 8})
	for i := 0; i < 5; i++ {
		if err := j.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if j.Degraded() {
		t.Fatal("degraded before any failure")
	}
	ffs.breakNow()

	// Every post-failure append must still succeed from the caller's view.
	const lost = 12
	for i := 0; i < lost; i++ {
		if err := j.Append(testEntry(100 + i)); err != nil {
			t.Fatalf("append during disk failure: %v", err)
		}
	}
	if !j.Degraded() {
		t.Fatal("not degraded after write failures")
	}
	if ok, detail := j.Health(); ok || detail == "" {
		t.Fatalf("health = %v %q", ok, detail)
	}
	c := j.Counters()
	if c.Appended != 5 || c.Shed != lost || c.RingDropped != lost-8 || c.WriteErrors == 0 {
		t.Fatalf("counters = %+v", c)
	}
	// Accounting invariant: nothing disappears without a number attached.
	if c.Appended+c.Shed != 5+lost {
		t.Fatalf("appended %d + shed %d != offered %d", c.Appended, c.Shed, 5+lost)
	}
	ring := j.Ring()
	if len(ring) != 8 {
		t.Fatalf("ring holds %d, want 8", len(ring))
	}
	// Ring keeps the newest shed records, oldest first, still chained.
	for i, rec := range ring {
		if rec.Detail != fmt.Sprintf("detail-%d", 100+lost-8+i) {
			t.Fatalf("ring[%d] = %q", i, rec.Detail)
		}
		if i > 0 && rec.PrevHash != ring[i-1].Hash {
			t.Fatalf("ring[%d] does not chain", i)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close degraded journal: %v", err)
	}

	// The durable prefix survives untouched.
	rep, err := ScanDir(nil, dir)
	if err != nil || rep.Break != nil || len(rep.Records) != 5 {
		t.Fatalf("post-failure scan: %d records, break=%v, err=%v", len(rep.Records), rep.Break, err)
	}
}

func TestAppendValidation(t *testing.T) {
	j := mustOpen(t, t.TempDir(), Options{Fsync: SyncNever})
	defer j.Close()
	if err := j.Append(Entry{}); err == nil {
		t.Fatal("zero-kind entry accepted")
	}
	if err := j.Append(Entry{Kind: numKinds}); err == nil {
		t.Fatal("out-of-range kind accepted")
	}
}
