// Package journal is the durable evidence plane: an append-only,
// segment-rotated, checksummed verdict/evidence journal in which every
// record is hash-chained to its predecessor. Production attestation is
// an audit system — a verdict that dies with the gateway process erases
// exactly the evidence trail the scheme exists to produce — so the
// gateway commits every session outcome (and every live dictionary
// version) through here.
//
// # Trust and failure model
//
// The chain applies the paper's report trust argument to storage: each
// record's hash covers its body including the previous record's hash,
// so altering, reordering or deleting any stored byte is detectable at
// the next link. Per-record CRCs catch accidental damage (torn tails,
// cold bit flips) cheaply; the hash chain catches deliberate tampering
// even when a CRC is fixed up.
//
// Crash safety is end to end:
//
//   - appends are committed under a configurable fsync policy; under
//     [SyncEach] one fsync covers every record of an [Journal.AppendBatch]
//     call, so a single committer that drains a queue pays one fsync for
//     everything that arrived during the previous one;
//   - segments are created and the manifest rewritten via
//     temp-file+rename ([WriteFileAtomic]), so rotation is atomic;
//   - the startup recovery scan truncates a torn tail record (an
//     interrupted append that was never acknowledged durable) but
//     refuses — or quarantines, by policy — a broken hash chain: zero
//     silently-dropped and zero silently-altered records;
//   - a disk-write failure degrades instead of killing the gateway:
//     the journal sheds subsequent records into a bounded in-memory
//     ring, reports Health() degraded, and counts every shed record.
//
// All disk access goes through the [FS] seam so the chaos layer
// (internal/faults) can inject short writes, fsync errors and stalls,
// torn tails and cold bit flips with a seeded, replayable schedule.
package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// FsyncPolicy selects when appended records are flushed to stable
// storage.
type FsyncPolicy uint8

const (
	// SyncEach makes AppendBatch (and Append) return only after its
	// records are fsynced: one fsync per call, covering the whole batch.
	SyncEach FsyncPolicy = iota
	// SyncInterval fsyncs on a background ticker; a crash loses at most
	// one interval of records (as a truncatable torn tail).
	SyncInterval
	// SyncNever leaves flushing to the OS (tests, throwaway runs).
	SyncNever
)

// BreakPolicy decides what Open does with a broken hash chain.
type BreakPolicy uint8

const (
	// RefuseOpen fails Open with the *ChainError — the operator must
	// look at the evidence before anything touches it.
	RefuseOpen BreakPolicy = iota
	// Quarantine renames the offending segment and everything after it
	// to *.quarantined and resumes the journal from the last verified
	// record. Nothing is deleted; the damaged suffix stays on disk for
	// forensics.
	Quarantine
)

// Options tunes a Journal; the zero value selects every default.
type Options struct {
	// FS is the filesystem seam (nil: OSFS).
	FS FS
	// SegmentBytes rotates the active segment beyond this size
	// (default 1 MiB).
	SegmentBytes int64
	// Fsync selects the commit durability policy (default SyncEach).
	Fsync FsyncPolicy
	// FsyncEvery is the SyncInterval ticker period (default 100ms).
	FsyncEvery time.Duration
	// OnChainBreak selects the broken-chain policy (default RefuseOpen).
	OnChainBreak BreakPolicy
	// RingSize bounds the degraded-mode in-memory ring (default 1024).
	RingSize int
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = 100 * time.Millisecond
	}
	if o.RingSize <= 0 {
		o.RingSize = 1024
	}
	return o
}

// Counters is a snapshot of the journal's own accounting. Appended +
// Shed covers every record ever handed to Append, so nothing disappears
// without a number attached.
type Counters struct {
	Appended    uint64 // records written to the active segment
	Rotated     uint64 // segments sealed
	Recovered   uint64 // records validated by the startup scan
	Truncated   uint64 // torn tail records truncated at startup
	ChainBreaks uint64 // broken chains detected (quarantined or refused)
	Quarantined uint64 // segments moved aside by the Quarantine policy
	Shed        uint64 // records diverted to the degraded-mode ring
	RingDropped uint64 // ring evictions (oldest shed record lost)
	WriteErrors uint64 // disk write/sync/rotate failures observed
	Fsyncs      uint64 // fsyncs issued (one covers a whole batch)
}

// Journal is an open evidence journal. All methods are safe for
// concurrent use.
type Journal struct {
	opts Options
	dir  string

	// mu serializes appends, commits, rotation and Close. A commit's
	// fsync runs under it, so no path can close or swap the file mid-sync.
	mu      sync.Mutex
	active  File
	actName string
	actSize int64
	nextSeq atomic.Uint64 // written under mu; read without it
	head    [32]byte
	closed  bool

	// The sealed (rotation-retired) segments are indexed by their count
	// and their two ends, which is all the manifest lists: deleting an
	// end reads as a missing segment, deleting one between them as a
	// break in the chain, so rotation stays O(1) however long the
	// journal runs.
	sealedN    atomic.Int64
	sealedEnds []manifestSegment // first and last sealed segment; guarded by mu

	degraded atomic.Bool
	lastErr  atomic.Pointer[error]
	ring     []Record // degraded-mode shed buffer, oldest first

	c struct {
		appended, rotated, recovered, truncated atomic.Uint64
		chainBreaks, quarantined                atomic.Uint64
		shed, ringDropped, writeErrors, fsyncs  atomic.Uint64
	}

	// fsyncObserve, when non-nil, receives each fsync's wall time
	// (installed by RegisterMetrics as the raptrack_journal_fsync_seconds
	// histogram).
	fsyncObserve func(time.Duration)

	audit auditIndex

	stopSync chan struct{}
	syncDone chan struct{}
}

// Open validates the full chain under dir (creating it if absent),
// applies recovery policy — truncating a torn tail, refusing or
// quarantining a broken chain — and returns a journal ready to append
// at the verified head.
func Open(dir string, opts Options) (*Journal, error) {
	opts = opts.withDefaults()
	fsys := opts.FS
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	// Interrupted atomic writes leave *.tmp files; they were never part
	// of the chain.
	if entries, err := fsys.ReadDir(dir); err == nil {
		for _, e := range entries {
			if filepath.Ext(e.Name()) == ".tmp" {
				_ = fsys.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}

	j := &Journal{opts: opts, dir: dir}

	res, err := scan(fsys, dir)
	if err != nil {
		return nil, err
	}
	if res.breakErr != nil {
		j.c.chainBreaks.Add(1)
		if opts.OnChainBreak == RefuseOpen {
			return nil, res.breakErr
		}
		// Quarantine: move the offending segment and all later ones
		// aside, then rescan the surviving prefix.
		for _, name := range res.names[res.breakIdx:] {
			src := filepath.Join(dir, name)
			if err := fsys.Rename(src, src+".quarantined"); err != nil {
				return nil, fmt.Errorf("journal: quarantining %s: %w", name, err)
			}
			j.c.quarantined.Add(1)
		}
		// The stale manifest may reference the segments just moved aside;
		// drop it so the rescan re-derives the sealed set (Open rewrites
		// it below).
		_ = fsys.Remove(filepath.Join(dir, manifestName))
		_ = fsys.SyncDir(dir)
		if res, err = scan(fsys, dir); err != nil {
			return nil, err
		}
		if res.breakErr != nil {
			// Damage in the surviving prefix too; nothing left to save.
			return nil, res.breakErr
		}
	}
	if res.torn != nil {
		if err := fsys.Truncate(filepath.Join(dir, res.torn.Segment), res.torn.Offset); err != nil {
			return nil, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
		j.c.truncated.Add(1)
	}
	j.c.recovered.Add(uint64(len(res.records)))
	j.nextSeq.Store(res.nextSeq)
	j.head = res.head
	for _, rec := range res.records {
		j.audit.note(rec)
	}

	// All but the final segment are sealed; rewrite the manifest to
	// match reality (this also completes a rotation that crashed
	// between rename and manifest update).
	for i, info := range res.segments {
		if i == len(res.segments)-1 {
			break
		}
		j.noteSealedLocked(manifestSegment{
			Name: info.name, BaseSeq: info.base, LastSeq: info.lastSeq, Head: hashHex(info.head),
		})
	}
	if err := writeManifest(fsys, dir, manifest{Sealed: j.sealedEnds}); err != nil {
		return nil, err
	}

	if n := len(res.segments); n > 0 {
		info := res.segments[n-1]
		size := info.size
		if res.torn != nil {
			size = res.torn.Offset
		}
		f, err := fsys.OpenFile(filepath.Join(dir, info.name), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("journal: reopening active segment: %w", err)
		}
		j.active, j.actName, j.actSize = f, info.name, size
	} else if err := j.newSegmentLocked(); err != nil {
		return nil, err
	}

	if opts.Fsync == SyncInterval {
		j.stopSync = make(chan struct{})
		j.syncDone = make(chan struct{})
		go j.syncLoop()
	}
	return j, nil
}

// newSegmentLocked creates and installs a fresh active segment whose
// header continues the chain, via temp-file+rename so the file appears
// atomically with its header already durable. Caller holds j.mu (or is
// Open, before the journal is shared).
func (j *Journal) newSegmentLocked() error {
	fsys := j.opts.FS
	base := j.nextSeq.Load()
	name := segmentName(base)
	path := filepath.Join(j.dir, name)
	if err := WriteFileAtomic(fsys, path, encodeSegmentHeader(base, j.head), 0o644); err != nil {
		return err
	}
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: opening new segment: %w", err)
	}
	j.active, j.actName, j.actSize = f, name, segmentHeaderSize
	return nil
}

// Append commits one entry: AppendBatch with a batch of one.
func (j *Journal) Append(e Entry) error { return j.AppendBatch([]Entry{e}) }

// AppendBatch seals entries into the chain in order and commits them
// under the journal's fsync policy; under SyncEach one fsync covers the
// whole batch (a rotation mid-batch seals the part before it with the
// seal fsync) and AppendBatch returns once it has. A journal in degraded
// mode (or driven into it by this batch's disk failure) sheds records
// into the bounded in-memory ring instead — the gateway must never die
// on its evidence plane. An entry that does not encode is skipped and
// its error returned; every other entry is accounted in
// Counters().Appended + Shed.
func (j *Journal) AppendBatch(entries []Entry) error {
	now := time.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: closed")
	}
	var errs []error
	wrote := false // the active segment holds records no fsync covers yet
	for _, e := range entries {
		if e.Time.IsZero() {
			e.Time = now
		}
		rec := Record{Entry: e, Seq: j.nextSeq.Load(), PrevHash: j.head}
		frame, err := rec.encode()
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if j.degraded.Load() {
			j.shedLocked(rec)
			continue
		}
		if j.actSize >= j.opts.SegmentBytes {
			if err := j.rotateLocked(); err != nil {
				j.noteWriteError(err)
				j.shedLocked(rec)
				continue
			}
			wrote = false
		}
		if _, err := j.active.Write(frame); err != nil {
			// The segment tail is now indeterminate (a short write may have
			// landed a partial frame); recovery will truncate it as torn.
			j.noteWriteError(err)
			j.shedLocked(rec)
			continue
		}
		wrote = true
		j.actSize += int64(len(frame))
		j.nextSeq.Add(1)
		j.head = rec.Hash
		j.c.appended.Add(1)
		j.audit.note(rec)
	}
	// A degraded journal no longer trusts the disk: like Close, it skips
	// the fsync.
	if wrote && j.opts.Fsync == SyncEach && !j.degraded.Load() {
		if err := j.syncLocked(); err != nil {
			j.noteWriteError(err)
		}
	}
	return errors.Join(errs...)
}

// syncLocked fsyncs the active segment and times it. Caller holds j.mu.
func (j *Journal) syncLocked() error {
	start := time.Now()
	err := j.active.Sync()
	j.c.fsyncs.Add(1)
	if j.fsyncObserve != nil {
		j.fsyncObserve(time.Since(start))
	}
	return err
}

// rotateLocked seals the active segment (fsync, close, manifest) and
// installs a fresh one. Caller holds j.mu.
func (j *Journal) rotateLocked() error {
	if err := j.syncLocked(); err != nil {
		return fmt.Errorf("journal: sealing %s: %w", j.actName, err)
	}
	if err := j.active.Close(); err != nil {
		return fmt.Errorf("journal: sealing %s: %w", j.actName, err)
	}
	base, _ := parseSegmentName(j.actName)
	j.noteSealedLocked(manifestSegment{
		Name: j.actName, BaseSeq: base, LastSeq: j.nextSeq.Load() - 1, Head: hashHex(j.head),
	})
	// Order matters for crash-recovery: the new segment appears on disk
	// before the manifest lists the old one as sealed, so a crash
	// between the two steps leaves a scan that re-derives the sealed
	// set from the segments themselves.
	if err := j.newSegmentLocked(); err != nil {
		return err
	}
	if err := writeManifest(j.opts.FS, j.dir, manifest{Sealed: j.sealedEnds}); err != nil {
		return fmt.Errorf("journal: manifest update: %w", err)
	}
	j.c.rotated.Add(1)
	return nil
}

// noteSealedLocked counts one more sealed segment and makes it the last
// of the manifest's two ends. Caller holds j.mu (or is Open).
func (j *Journal) noteSealedLocked(s manifestSegment) {
	if len(j.sealedEnds) < 2 {
		j.sealedEnds = append(j.sealedEnds, s)
	} else {
		j.sealedEnds[1] = s
	}
	j.sealedN.Add(1)
}

// shedLocked routes one record into the degraded-mode ring, evicting
// the oldest when full. Caller holds j.mu.
func (j *Journal) shedLocked(rec Record) {
	// Shed records stay on the in-memory chain so the sequence numbers
	// and hashes remain consistent if they are later exported.
	j.nextSeq.Add(1)
	j.head = rec.Hash
	if len(j.ring) >= j.opts.RingSize {
		copy(j.ring, j.ring[1:])
		j.ring = j.ring[:len(j.ring)-1]
		j.c.ringDropped.Add(1)
	}
	j.ring = append(j.ring, rec)
	j.c.shed.Add(1)
	j.audit.note(rec)
}

func (j *Journal) noteWriteError(err error) {
	j.c.writeErrors.Add(1)
	e := err
	j.lastErr.Store(&e)
	j.degraded.Store(true)
}

// syncLoop is the SyncInterval ticker.
func (j *Journal) syncLoop() {
	defer close(j.syncDone)
	t := time.NewTicker(j.opts.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-j.stopSync:
			return
		case <-t.C:
			j.mu.Lock()
			if !j.closed && !j.degraded.Load() {
				if err := j.syncLocked(); err != nil {
					j.noteWriteError(err)
				}
			}
			j.mu.Unlock()
		}
	}
}

// Close seals the journal: final fsync, file close.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	file := j.active
	j.active = nil
	j.mu.Unlock()
	// With closed set nothing else touches file; the ticker takes mu, so
	// it is stopped without holding it.
	if j.stopSync != nil {
		close(j.stopSync)
		<-j.syncDone
	}
	var err error
	if !j.degraded.Load() && j.opts.Fsync != SyncNever {
		err = file.Sync()
	}
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	return err
}

// Degraded reports whether the journal has shed to the in-memory ring
// after a disk failure.
func (j *Journal) Degraded() bool { return j.degraded.Load() }

// Health renders the journal's liveness for a /healthz subsystem probe.
func (j *Journal) Health() (ok bool, detail string) {
	if !j.degraded.Load() {
		return true, fmt.Sprintf("chain head seq %d", j.NextSeq()-1)
	}
	c := j.Counters()
	msg := fmt.Sprintf("degraded: %d records shed to ring (%d dropped)", c.Shed, c.RingDropped)
	if p := j.lastErr.Load(); p != nil {
		msg += ": " + (*p).Error()
	}
	return false, msg
}

// Counters snapshots the journal's accounting.
func (j *Journal) Counters() Counters {
	return Counters{
		Appended:    j.c.appended.Load(),
		Rotated:     j.c.rotated.Load(),
		Recovered:   j.c.recovered.Load(),
		Truncated:   j.c.truncated.Load(),
		ChainBreaks: j.c.chainBreaks.Load(),
		Quarantined: j.c.quarantined.Load(),
		Shed:        j.c.shed.Load(),
		RingDropped: j.c.ringDropped.Load(),
		WriteErrors: j.c.writeErrors.Load(),
		Fsyncs:      j.c.fsyncs.Load(),
	}
}

// NextSeq returns the sequence number the next appended record gets.
// It does not wait for an in-flight commit, so health probes and
// scrapes stay live while the disk is slow.
func (j *Journal) NextSeq() uint64 { return j.nextSeq.Load() }

// Head returns the chain head hash (zero before the first record).
func (j *Journal) Head() [32]byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.head
}

// Ring returns a copy of the degraded-mode ring, oldest first.
func (j *Journal) Ring() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Record, len(j.ring))
	copy(out, j.ring)
	return out
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// SealedSegments returns the count of sealed (rotation-retired)
// segments.
func (j *Journal) SealedSegments() int { return int(j.sealedN.Load()) }
