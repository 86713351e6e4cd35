// Gateway × evidence-journal integration: every verdict the gateway
// hands a device lands in the journal with a decodable evidence payload,
// and a storming journal disk never fails a session — the gateway sheds
// records into the journal's ring and keeps verifying. Under -race.
package server_test

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"raptrack/internal/attest"
	"raptrack/internal/faults"
	"raptrack/internal/journal"
	"raptrack/internal/remote"
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

// journalQueueDepth reads raptrack_journal_queue_depth from the
// gateway's exposition.
func journalQueueDepth(t *testing.T, g *server.Gateway) int {
	t.Helper()
	var b strings.Builder
	if err := g.Observer().Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "raptrack_journal_queue_depth "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("raptrack_journal_queue_depth %q: %v", v, err)
			}
			return n
		}
	}
	t.Fatal("no raptrack_journal_queue_depth in the exposition")
	return 0
}

// waitJournalQueue polls until the committer has committed every record
// handed to it.
func waitJournalQueue(t *testing.T, g *server.Gateway) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for journalQueueDepth(t, g) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("journal queue still holds %d records", journalQueueDepth(t, g))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// attestAs runs one prime session announcing device, failing the test
// unless it is accepted.
func attestAs(t *testing.T, ep *remote.ProverEndpoint, addr, device string) {
	t.Helper()
	gv, err := remote.NewClient(ep, remote.WithDevice(device)).Attest(dial(t, addr), "prime")
	if err != nil {
		t.Fatalf("session %s: %v", device, err)
	}
	if !gv.OK {
		t.Fatalf("session %s rejected: %s", device, gv.Reason())
	}
}

// stalledJournalGateway opens a SyncEach journal over a disk whose every
// fsync stalls for stall once armed (it starts disarmed), and serves
// prime with two verify workers; one warm-up session has filled the
// verdict cache and its records are committed.
func stalledJournalGateway(t *testing.T, seed uint64, stall time.Duration) (*faults.DiskFS, *faults.Injector, *journal.Journal, *server.Gateway, string, *remote.ProverEndpoint) {
	t.Helper()
	dir := t.TempDir()
	in := faults.New(seed, faults.Plan{DiskFsyncStall: 1, DiskFsyncStallFor: stall})
	fs := in.WrapFS(nil)
	fs.Disarm()
	j, err := journal.Open(dir, journal.Options{FS: fs, Fsync: journal.SyncEach})
	if err != nil {
		t.Fatal(err)
	}
	// Registered before startGateway so LIFO cleanup closes the gateway
	// (and drains its committer) before the journal.
	t.Cleanup(func() { _ = j.Close() })
	g, addr, ep := startGateway(t, []server.Option{server.WithJournal(j), server.WithVerifyWorkers(2, 0)}, "prime")
	attestAs(t, ep, addr, "warm-up")
	waitStats(t, g, func(s server.Stats) bool { return s.VerdictOK == 1 })
	waitJournalQueue(t, g)
	return fs, in, j, g, addr, ep
}

// verdictDevices lists the devices of the verdict records under dir, in
// journal order.
func verdictDevices(t *testing.T, dir string) []string {
	t.Helper()
	rep, err := journal.ScanDir(nil, dir)
	if err != nil || rep.Break != nil {
		t.Fatalf("scan: break=%v, err=%v", rep.Break, err)
	}
	var devices []string
	for _, rec := range rep.Records {
		if rec.Kind == journal.KindVerdict {
			devices = append(devices, rec.Device)
		}
	}
	return devices
}

// TestGatewayJournalFsyncStallKeepsWorkersFree gates the journal
// committer: with every fsync stalled for two seconds and two verify
// workers, one client's 16 back-to-back sessions all get their verdicts
// within one stall, because workers hand records to the committer
// instead of waiting for them to be durable. Were each worker to commit
// its own record, the third session would already wait a full stall.
// After Close the journal holds all 16, and one fsync covered at least
// two records on average.
func TestGatewayJournalFsyncStallKeepsWorkersFree(t *testing.T) {
	// 16 warm sessions take about 0.3 s under -race on 2 vCPUs.
	const stall = 2 * time.Second
	fs, in, j, g, addr, ep := stalledJournalGateway(t, 5, stall)
	fs.Arm()
	const sessions = 16
	var want []string
	start := time.Now()
	for i := 0; i < sessions; i++ {
		want = append(want, fmt.Sprintf("dev-%02d", i))
		attestAs(t, ep, addr, want[i])
	}
	took := time.Since(start)
	fs.Disarm() // the stall in flight is the last one
	t.Logf("%d sessions in %v", sessions, took)
	if took >= stall {
		t.Fatalf("%d sessions took %v under a %v fsync stall: workers waited on the journal", sessions, took, stall)
	}
	if in.Counts().DiskFsyncStalls == 0 {
		t.Fatal("no fsync stalled")
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	c := j.Counters()
	if c.Fsyncs*2 > c.Appended {
		t.Fatalf("%d fsyncs for %d records: the committer did not batch", c.Fsyncs, c.Appended)
	}
	if got := verdictDevices(t, j.Dir()); !slices.Equal(got[1:], want) {
		t.Fatalf("journaled verdicts %v, want warm-up then %v", got, want)
	}
}

// TestGatewayJournalCrashWhileRecordsQueued adds queued-but-not-durable
// to the crash matrix: power fails while the committer sits in a stalled
// fsync with delivered verdicts queued behind it. Recovery finds no
// chain break; the verdicts it keeps are a prefix of the delivery order;
// and it loses no more of them than raptrack_journal_queue_depth read at
// the crash — at most commitQueue queued plus one batch, as no worker
// was waiting for queue space.
func TestGatewayJournalCrashWhileRecordsQueued(t *testing.T) {
	const stall = 2 * time.Second
	fs, in, j, g, addr, ep := stalledJournalGateway(t, 9, stall)
	delivered := []string{"warm-up"}
	for i := 0; i < 4; i++ {
		delivered = append(delivered, fmt.Sprintf("durable-%d", i))
		attestAs(t, ep, addr, delivered[len(delivered)-1])
	}
	waitJournalQueue(t, g)
	fs.Arm()
	for i := 0; i < 12; i++ {
		delivered = append(delivered, fmt.Sprintf("queued-%02d", i))
		attestAs(t, ep, addr, delivered[len(delivered)-1])
	}
	for deadline := time.Now().Add(5 * time.Second); in.Counts().DiskFsyncStalls == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the committer never reached a stalled fsync")
		}
		time.Sleep(time.Millisecond)
	}
	depth := journalQueueDepth(t, g)
	if depth == 0 || depth > 2*server.CommitQueue {
		t.Fatalf("journal queue depth %d at the crash, want 1..%d", depth, 2*server.CommitQueue)
	}
	if err := fs.Crash(); err != nil {
		t.Fatal(err)
	}
	// The stalled fsync and every later write fail: the power is off.
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	_ = j.Close()

	j2, err := journal.Open(j.Dir(), journal.Options{})
	if err != nil {
		t.Fatalf("reopen after the crash: %v", err)
	}
	if c := j2.Counters(); c.ChainBreaks != 0 {
		t.Fatalf("recovery counters = %+v", c)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	got := verdictDevices(t, j.Dir())
	if len(got) > len(delivered) || !slices.Equal(got, delivered[:len(got)]) {
		t.Fatalf("recovered verdicts %v are not a prefix of the delivery order %v", got, delivered)
	}
	missing := len(delivered) - len(got)
	if missing == 0 || missing > depth {
		t.Fatalf("crash lost %d delivered verdicts; the queue depth read %d", missing, depth)
	}
	t.Logf("crash kept %d of %d delivered verdicts; queue depth %d", len(got), len(delivered), depth)
}
