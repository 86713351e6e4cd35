package faults

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"raptrack/internal/journal"
)

// ErrInjectedDisk marks every disk fault this layer manufactures, so
// harnesses can assert the journal degraded for the injected reason and
// not a real environmental failure.
var ErrInjectedDisk = errors.New("faults: injected disk error")

// WrapFS wraps a journal filesystem with the injector's seeded
// disk-fault schedule: short writes, write errors, fsync errors, fsync
// stalls, and cold-read bit flips. The returned *DiskFS additionally
// simulates power loss — [DiskFS.Crash] discards every byte not yet
// covered by an fsync (keeping a seeded partial tail, the torn-record
// signature an interrupted append leaves on a real disk).
func (in *Injector) WrapFS(inner journal.FS) *DiskFS {
	if inner == nil {
		inner = journal.OSFS
	}
	d := &DiskFS{in: in, inner: inner, synced: make(map[string]int64), size: make(map[string]int64)}
	d.armed.Store(true)
	return d
}

// DiskFS is a chaos filesystem for the evidence journal. It forwards to
// the wrapped FS, injecting faults per the plan, and tracks per-path
// durable offsets so Crash can replay what a power cut leaves behind.
type DiskFS struct {
	in      *Injector
	inner   journal.FS
	armed   atomic.Bool
	crashed atomic.Bool // set by Crash: nothing lands afterwards

	mu     sync.Mutex
	synced map[string]int64 // bytes guaranteed durable per path
	size   map[string]int64 // bytes written per path (durable or not)
}

// Arm enables fault injection (the default). Durability tracking for
// Crash runs regardless of arming.
func (d *DiskFS) Arm() { d.armed.Store(true) }

// Disarm suspends fault injection — a harness opens the journal over a
// healthy disk, then arms the schedule to target steady-state appends.
func (d *DiskFS) Disarm() { d.armed.Store(false) }

// inj returns the injector when faults are armed, nil otherwise.
func (d *DiskFS) inj() *Injector {
	if d.armed.Load() {
		return d.in
	}
	return nil
}

func (d *DiskFS) MkdirAll(path string, perm os.FileMode) error { return d.inner.MkdirAll(path, perm) }

func (d *DiskFS) OpenFile(name string, flag int, perm os.FileMode) (journal.File, error) {
	f, err := d.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	if flag&os.O_TRUNC != 0 {
		d.size[name] = 0
		d.synced[name] = 0
	} else if flag&os.O_APPEND != 0 {
		if _, ok := d.size[name]; !ok {
			// Reopened pre-existing file (recovery): its current contents
			// are durable by definition.
			if data, rerr := d.inner.ReadFile(name); rerr == nil {
				d.size[name] = int64(len(data))
				d.synced[name] = int64(len(data))
			}
		}
	}
	d.mu.Unlock()
	return &diskFile{fs: d, name: name, inner: f}, nil
}

func (d *DiskFS) Rename(oldpath, newpath string) error {
	err := d.inner.Rename(oldpath, newpath)
	if err == nil {
		d.mu.Lock()
		d.size[newpath] = d.size[oldpath]
		d.synced[newpath] = d.synced[oldpath]
		delete(d.size, oldpath)
		delete(d.synced, oldpath)
		d.mu.Unlock()
	}
	return err
}

func (d *DiskFS) Remove(name string) error {
	err := d.inner.Remove(name)
	if err == nil {
		d.mu.Lock()
		delete(d.size, name)
		delete(d.synced, name)
		d.mu.Unlock()
	}
	return err
}

func (d *DiskFS) ReadDir(name string) ([]os.DirEntry, error) { return d.inner.ReadDir(name) }

// ReadFile injects cold-storage bit flips: per the plan, one read
// returns the stored bytes with a single uniformly-chosen bit inverted —
// the undetected-by-the-OS media rot the per-record CRC and hash chain
// exist to catch.
func (d *DiskFS) ReadFile(name string) ([]byte, error) {
	data, err := d.inner.ReadFile(name)
	if err != nil || len(data) == 0 {
		return data, err
	}
	if in := d.inj(); in != nil && in.roll(in.plan.DiskBitFlip, &in.c.DiskBitFlips) {
		out := append([]byte(nil), data...)
		bit := in.intn(len(out)*8) - 1
		out[bit/8] ^= 1 << (bit % 8)
		return out, nil
	}
	return data, err
}

func (d *DiskFS) Truncate(name string, size int64) error {
	err := d.inner.Truncate(name, size)
	if err == nil {
		d.mu.Lock()
		d.size[name] = size
		if d.synced[name] > size {
			d.synced[name] = size
		}
		d.mu.Unlock()
	}
	return err
}

func (d *DiskFS) SyncDir(name string) error { return d.inner.SyncDir(name) }

// Crash simulates power loss: every path loses its bytes beyond the
// last fsync, except for a seeded prefix of the unsynced tail — the
// partially-flushed page a real crash strands, i.e. a torn record for
// the recovery scan to find. The power stays off: every write and
// fsync through this FS that starts after Crash fails and lands
// nothing, so a journal still running over it (say, with a committer
// stalled in an fsync) cannot extend the crashed image. Inspect the
// image with a fresh FS.
func (d *DiskFS) Crash() error {
	d.crashed.Store(true)
	d.mu.Lock()
	defer d.mu.Unlock()
	for name, written := range d.size {
		durable := d.synced[name]
		if written <= durable {
			continue
		}
		keep := durable
		if tail := written - durable; tail > 1 && d.in != nil {
			// Strand part of one unsynced page.
			keep += int64(d.in.intn(int(tail)) - 1)
		}
		if err := d.inner.Truncate(name, keep); err != nil {
			return fmt.Errorf("faults: crash truncate %s: %w", name, err)
		}
		if keep > durable {
			d.in.mu.Lock()
			d.in.c.TornTails++
			d.in.mu.Unlock()
		}
		d.size[name] = keep
		d.synced[name] = keep
	}
	return nil
}

// diskFile wraps one journal file handle with write/fsync faults.
type diskFile struct {
	fs    *DiskFS
	name  string
	inner journal.File
}

func (f *diskFile) Write(p []byte) (int, error) {
	if f.fs.crashed.Load() {
		return 0, fmt.Errorf("%w: write %s after power loss", ErrInjectedDisk, f.name)
	}
	in := f.fs.inj()
	if in != nil && in.roll(in.plan.DiskWriteErr, &in.c.DiskWriteErrs) {
		return 0, fmt.Errorf("%w: write %s", ErrInjectedDisk, f.name)
	}
	if in != nil && len(p) > 1 && in.roll(in.plan.DiskWriteShort, &in.c.DiskShortWrites) {
		// A strict prefix lands on disk, then the device errors — the
		// canonical torn-record producer.
		n := in.intn(len(p) - 1)
		wrote, err := f.inner.Write(p[:n])
		f.note(wrote)
		if err != nil {
			return wrote, err
		}
		return wrote, fmt.Errorf("%w: short write %s (%d of %d bytes)", ErrInjectedDisk, f.name, wrote, len(p))
	}
	n, err := f.inner.Write(p)
	f.note(n)
	return n, err
}

func (f *diskFile) note(n int) {
	if n <= 0 {
		return
	}
	f.fs.mu.Lock()
	f.fs.size[f.name] += int64(n)
	f.fs.mu.Unlock()
}

// Sync applies a stall first — a slow disk — then the crash and error
// faults, then the real fsync.
func (f *diskFile) Sync() error {
	in := f.fs.inj()
	if in != nil && in.roll(in.plan.DiskFsyncStall, &in.c.DiskFsyncStalls) {
		d := in.plan.DiskFsyncStallFor
		if d <= 0 {
			d = 5 * time.Millisecond
		}
		time.Sleep(d)
	}
	if f.fs.crashed.Load() {
		return fmt.Errorf("%w: fsync %s after power loss", ErrInjectedDisk, f.name)
	}
	if in != nil && in.roll(in.plan.DiskFsyncErr, &in.c.DiskFsyncErrs) {
		return fmt.Errorf("%w: fsync %s", ErrInjectedDisk, f.name)
	}
	if err := f.inner.Sync(); err != nil {
		return err
	}
	f.fs.mu.Lock()
	f.fs.synced[f.name] = f.fs.size[f.name]
	f.fs.mu.Unlock()
	return nil
}

func (f *diskFile) Close() error { return f.inner.Close() }
