// Gateway × evidence-journal integration: every verdict the gateway
// hands a device lands in the journal with a decodable evidence payload,
// and a storming journal disk never fails a session — the gateway sheds
// records into the journal's ring and keeps verifying. Under -race.
package server_test

import (
	"testing"
	"time"

	"raptrack/internal/attest"
	"raptrack/internal/faults"
	"raptrack/internal/journal"
	"raptrack/internal/server"
)

// waitJournal polls the journal until pred holds over its counters.
func waitJournal(t *testing.T, j *journal.Journal, pred func(journal.Counters) bool) journal.Counters {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c := j.Counters()
		if pred(c) {
			return c
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal condition not reached; last: %+v", c)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestGatewayJournalsEveryVerdict(t *testing.T) {
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{Fsync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	// Registered before startGateway so LIFO cleanup closes the gateway
	// (and its in-flight appends) before the journal.
	t.Cleanup(func() { _ = j.Close() })

	// Mining every acceptance promotes a dictionary mid-run, so the log
	// holds verdicts under more than one dictionary version.
	g, addr, ep := startGateway(t, []server.Option{server.WithJournal(j), server.WithMining(1, 0, 0)}, "prime")
	const sessions = 6
	for i := 0; i < sessions; i++ {
		gv, err := attestApp(ep, dial(t, addr), "prime")
		if err != nil {
			t.Fatal(err)
		}
		if !gv.OK {
			t.Fatalf("session %d rejected: %s", i, gv.Reason())
		}
	}
	waitStats(t, g, func(s server.Stats) bool { return s.VerdictOK == sessions })
	// The commit happens just after the verdict is delivered, and the
	// dictionary records share the counter: drain the workers instead.
	g.Close()

	rep, err := journal.ScanDir(nil, dir)
	if err != nil || rep.Break != nil {
		t.Fatalf("scan: break=%v, err=%v", rep.Break, err)
	}
	verdicts := 0
	dicts := map[string]map[uint64]bool{} // app -> dictionary versions journaled so far
	for _, rec := range rep.Records {
		if rec.Kind == journal.KindDict {
			if dicts[rec.App] == nil {
				dicts[rec.App] = map[uint64]bool{}
			}
			dicts[rec.App][rec.DictVersion] = true
			continue
		}
		if rec.Kind != journal.KindVerdict {
			continue
		}
		verdicts++
		// Replay resolves a verdict's dictionary from the records before
		// it; version 0 without a record is the registered one.
		if rec.DictVersion != 0 && !dicts[rec.App][rec.DictVersion] {
			t.Fatalf("verdict seq %d names dictionary v%d before its record", rec.Seq, rec.DictVersion)
		}
		if rec.App != "prime" || rec.Device == "" {
			t.Fatalf("verdict record missing identity: %+v", rec)
		}
		if rec.Outcome != journal.OutcomeOK {
			t.Fatalf("healthy session journaled as %v: %+v", rec.Outcome, rec)
		}
		if _, reports, err := attest.DecodeEvidence(rec.Payload); err != nil || len(reports) == 0 {
			t.Fatalf("evidence payload does not decode (%d reports): %v", len(reports), err)
		}
	}
	if verdicts != sessions {
		t.Fatalf("journaled %d verdicts for %d sessions", verdicts, sessions)
	}
	if len(dicts["prime"]) == 0 {
		t.Fatal("no dictionary version journaled: mining never promoted")
	}
}

func TestGatewayJournalFsyncStormNeverFailsSessions(t *testing.T) {
	dir := t.TempDir()
	in := faults.New(11, faults.Plan{DiskFsyncErr: 1.0}) // every fsync fails
	fs := in.WrapFS(nil)
	fs.Disarm() // healthy disk for Open; the storm targets live commits
	j, err := journal.Open(dir, journal.Options{FS: fs, Fsync: journal.SyncEach})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() })
	fs.Arm()

	g, addr, ep := startGateway(t, []server.Option{server.WithJournal(j)}, "prime")
	const sessions = 8
	for i := 0; i < sessions; i++ {
		// The journal's disk is on fire; devices must not notice.
		gv, err := attestApp(ep, dial(t, addr), "prime")
		if err != nil {
			t.Fatalf("session %d failed during fsync storm: %v", i, err)
		}
		if !gv.OK {
			t.Fatalf("session %d rejected during fsync storm: %s", i, gv.Reason())
		}
	}
	waitStats(t, g, func(s server.Stats) bool { return s.VerdictOK == sessions })
	c := waitJournal(t, j, func(c journal.Counters) bool { return c.Appended+c.Shed >= sessions })

	if !j.Degraded() {
		t.Fatal("journal not degraded under a total fsync storm")
	}
	if ok, detail := j.Health(); ok || detail == "" {
		t.Fatalf("health = %v %q", ok, detail)
	}
	// Every shed record is accounted: still held in the ring or counted
	// as evicted from it — nothing vanishes without a number attached.
	if c.Shed != uint64(len(j.Ring()))+c.RingDropped {
		t.Fatalf("shed accounting: shed=%d ring=%d dropped=%d", c.Shed, len(j.Ring()), c.RingDropped)
	}
	if in.Counts().DiskFsyncErrs == 0 {
		t.Fatal("injector recorded no fsync errors")
	}
}
