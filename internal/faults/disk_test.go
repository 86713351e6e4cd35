// Disk-fault chaos for the evidence journal: seeded schedules of short
// writes, fsync-error bursts, simulated power loss (torn tails), and
// cold-read bit flips, each asserting the journal's recover-or-detect
// contract — every durable record is byte-identical to what was
// appended, every lost record is accounted, and nothing is ever
// silently altered or dropped. All must pass under -race.
package faults

import (
	"fmt"
	"testing"
	"time"

	"raptrack/internal/journal"
	"raptrack/internal/verify"
)

func chaosEntry(i int) journal.Entry {
	return journal.Entry{
		Kind:    journal.KindVerdict,
		Time:    time.Unix(1700000000, int64(i)),
		App:     "prime",
		Device:  fmt.Sprintf("10.0.0.1:%d", 50000+i),
		Outcome: journal.OutcomeOK,
		Code:    verify.ReasonNone,
		Detail:  fmt.Sprintf("chaos-%d", i),
		Payload: []byte(fmt.Sprintf("evidence-payload-%08d", i)),
	}
}

// assertDurablePrefix opens the journal read-only with a clean FS and
// checks that the surviving records are exactly a prefix of what was
// offered — recover-or-detect, never silent alteration.
func assertDurablePrefix(t *testing.T, dir string, offered int) int {
	t.Helper()
	rep, err := journal.ScanDir(nil, dir)
	if err != nil {
		t.Fatalf("clean rescan: %v", err)
	}
	if rep.Break != nil {
		t.Fatalf("clean rescan found a chain break: %v", rep.Break)
	}
	if len(rep.Records) > offered {
		t.Fatalf("recovered %d records, more than the %d offered", len(rep.Records), offered)
	}
	for i, rec := range rep.Records {
		want := chaosEntry(i)
		if rec.Seq != uint64(i+1) || rec.Detail != want.Detail ||
			string(rec.Payload) != string(want.Payload) {
			t.Fatalf("record %d altered: %+v", i, rec)
		}
	}
	return len(rep.Records)
}

func TestDiskFaultsShortWriteDegrades(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			in := New(seed, Plan{DiskWriteShort: 0.2})
			fs := in.WrapFS(nil)
			fs.Disarm() // healthy disk for Open; the schedule targets appends
			j, err := journal.Open(dir, journal.Options{FS: fs, Fsync: journal.SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			fs.Arm()
			const offered = 40
			for i := 0; i < offered; i++ {
				if err := j.Append(chaosEntry(i)); err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
			}
			c := j.Counters()
			if c.Appended+c.Shed != offered {
				t.Fatalf("accounting: appended %d + shed %d != offered %d", c.Appended, c.Shed, offered)
			}
			if in.Counts().DiskShortWrites == 0 {
				t.Skip("schedule injected no short write in this run")
			}
			if !j.Degraded() || c.Shed == 0 || c.WriteErrors == 0 {
				t.Fatalf("short write did not degrade: %+v", c)
			}
			_ = j.Close()

			// The short write left a partial frame; recovery truncates it
			// as torn and keeps the intact prefix.
			survived := assertDurablePrefix(t, dir, offered)
			if survived >= offered {
				t.Fatalf("nothing lost despite short write (%d records)", survived)
			}
		})
	}
}

func TestDiskFaultsFsyncErrorBurst(t *testing.T) {
	dir := t.TempDir()
	in := New(7, Plan{DiskFsyncErr: 1.0}) // every fsync fails
	fs := in.WrapFS(nil)
	fs.Disarm()
	j, err := journal.Open(dir, journal.Options{FS: fs, Fsync: journal.SyncEach})
	if err != nil {
		t.Fatal(err)
	}
	fs.Arm()
	const offered = 25
	for i := 0; i < offered; i++ {
		// Appends never error the caller, even with a storming fsync.
		if err := j.Append(chaosEntry(i)); err != nil {
			t.Fatalf("append %d during fsync storm: %v", i, err)
		}
	}
	if !j.Degraded() {
		t.Fatal("fsync storm did not degrade the journal")
	}
	if ok, detail := j.Health(); ok || detail == "" {
		t.Fatalf("health = %v %q", ok, detail)
	}
	c := j.Counters()
	if c.Appended+c.Shed != offered || c.WriteErrors == 0 {
		t.Fatalf("accounting under fsync storm: %+v", c)
	}
	if in.Counts().DiskFsyncErrs == 0 {
		t.Fatal("no fsync errors recorded by the injector")
	}
	_ = j.Close()
	assertDurablePrefix(t, dir, offered)
}

func TestDiskFaultsCrashTornTail(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			in := New(seed, Plan{})
			fs := in.WrapFS(nil)
			// SyncNever: nothing is durable beyond segment headers, so a
			// crash strands a seeded partial tail.
			j, err := journal.Open(dir, journal.Options{FS: fs, Fsync: journal.SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			const offered = 15
			for i := 0; i < offered; i++ {
				if err := j.Append(chaosEntry(i)); err != nil {
					t.Fatal(err)
				}
			}
			// Power cut: no Close, no fsync.
			if err := fs.Crash(); err != nil {
				t.Fatal(err)
			}

			survived := assertDurablePrefix(t, dir, offered)
			// Recovery must also append cleanly at the survived head.
			j2, err := journal.Open(dir, journal.Options{})
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			if err := j2.Append(chaosEntry(survived)); err != nil {
				t.Fatal(err)
			}
			if err := j2.Close(); err != nil {
				t.Fatal(err)
			}
			if got := assertDurablePrefix(t, dir, offered); got != survived+1 {
				t.Fatalf("post-crash journal has %d records, want %d", got, survived+1)
			}
		})
	}
}

func TestDiskFaultsCrashAfterFsyncKeepsEverything(t *testing.T) {
	dir := t.TempDir()
	in := New(3, Plan{})
	fs := in.WrapFS(nil)
	j, err := journal.Open(dir, journal.Options{FS: fs, Fsync: journal.SyncEach})
	if err != nil {
		t.Fatal(err)
	}
	const offered = 10
	for i := 0; i < offered; i++ {
		if err := j.Append(chaosEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	// SyncEach acknowledged every append durable; a crash must lose none.
	if err := fs.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := assertDurablePrefix(t, dir, offered); got != offered {
		t.Fatalf("crash after group commit lost records: %d of %d", got, offered)
	}
}

func TestDiskFaultsColdBitFlipDetected(t *testing.T) {
	// Build a clean journal, then read it back through a flipping FS:
	// every altered read must be detected (refused), never silently
	// accepted as different records.
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{Fsync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	const offered = 20
	for i := 0; i < offered; i++ {
		if err := j.Append(chaosEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	detected := 0
	for seed := uint64(1); seed <= 10; seed++ {
		in := New(seed, Plan{DiskBitFlip: 0.5})
		fs := in.WrapFS(nil)
		rep, err := journal.ScanDir(fs, dir)
		if err != nil {
			// IO-level refusal also counts as detection.
			detected++
			continue
		}
		if rep.Break != nil || rep.Torn != nil {
			detected++
			continue
		}
		// No damage report: then the records must be byte-identical —
		// the flip hit a non-chain file (e.g. the advisory manifest) or
		// did not fire.
		if len(rep.Records) != offered {
			t.Fatalf("seed %d: silent record loss: %d of %d", seed, len(rep.Records), offered)
		}
		for i, rec := range rep.Records {
			if rec.Detail != chaosEntry(i).Detail || string(rec.Payload) != string(chaosEntry(i).Payload) {
				t.Fatalf("seed %d: silent alteration of record %d", seed, i)
			}
		}
	}
	if detected == 0 {
		t.Fatal("no bit flip detected across 10 seeds — schedule not firing")
	}
}

func TestDiskFaultsDeterministicSchedule(t *testing.T) {
	// Same seed + same operation sequence → same fault schedule.
	run := func() (Counts, int) {
		dir := t.TempDir()
		in := New(42, Plan{DiskWriteShort: 0.15, DiskFsyncErr: 0.1})
		fs := in.WrapFS(nil)
		fs.Disarm()
		j, err := journal.Open(dir, journal.Options{FS: fs, Fsync: journal.SyncEach})
		if err != nil {
			t.Fatal(err)
		}
		fs.Arm()
		for i := 0; i < 30; i++ {
			_ = j.Append(chaosEntry(i))
		}
		c := int(j.Counters().Appended)
		_ = j.Close()
		return in.Counts(), c
	}
	c1, a1 := run()
	c2, a2 := run()
	if c1 != c2 || a1 != a2 {
		t.Fatalf("seeded schedule not deterministic:\n%+v (%d appended)\n%+v (%d appended)", c1, a1, c2, a2)
	}
}
