package server

import (
	"time"

	"raptrack/internal/attest"
	"raptrack/internal/journal"
	"raptrack/internal/verify"
)

// commitQueue bounds the journal records waiting for the committer. It
// is the knob on the durability contract: a verdict is delivered before
// its record is durable, and under SyncEach a crash loses at most the
// records counted by raptrack_journal_queue_depth — this many queued,
// one batch of at most this many being committed, and one per verify
// worker waiting for queue space. 64 records (about 0.6 MB of evidence)
// are 25–80 ms of traffic at the benchmark's session rates, dozens of
// fsyncs on a healthy disk, so a worker waits only while the disk stalls.
//
// A full queue blocks the worker instead of shedding: a record dropped
// here while later ones reach disk either disappears uncounted or,
// through the journal's shed path (which advances the in-memory chain),
// leaves a sequence gap the next Open refuses as a chain break.
const commitQueue = 64

// pendingRecord is one journal record waiting for the committer: the
// entry with everything but a verdict's evidence payload, which the
// committer encodes from chal and reports. Nothing else of the session
// is kept, so queued records pin no verifier state or expanded evidence.
type pendingRecord struct {
	e       journal.Entry
	chal    attest.Challenge
	reports []*attest.Report
}

func (p pendingRecord) entry() journal.Entry {
	if p.e.Kind == journal.KindVerdict {
		p.e.Payload = attest.EncodeEvidence(p.chal, p.reports)
	}
	return p.e
}

// handOff queues one record for the committer, blocking while the
// queue is full.
func (g *Gateway) handOff(p pendingRecord) {
	g.pending.Add(1)
	g.commits <- p
}

// commit is the journal committer, the one goroutine that appends to
// the gateway's journal. It takes the oldest queued record, drains what
// queued behind it (up to commitQueue records), and commits them in
// order with one AppendBatch — under SyncEach one fsync for every record
// that arrived during the previous one. Journal errors are the
// journal's to account: it degrades and sheds, it never fails a session.
func (g *Gateway) commit() {
	defer close(g.committed)
	j := g.cfg.Journal
	batch := make([]journal.Entry, 0, commitQueue)
	for p := range g.commits {
		batch = append(batch[:0], p.entry())
	drain:
		for len(batch) < cap(batch) {
			select {
			case p, ok := <-g.commits:
				if !ok {
					break drain
				}
				batch = append(batch, p.entry())
			default:
				break drain
			}
		}
		_ = j.AppendBatch(batch)
		g.pending.Add(-int64(len(batch)))
		clear(batch) // drop the evidence before the next batch
	}
}

// journalVerdict hands one completed verification to the committer: the
// outcome classification plus the complete evidence (challenge and
// signed report chain), enough for a bit-for-bit replay. It runs on the
// worker goroutine after the session has its result, and is stamped
// with that time, not the commit's.
func (g *Gateway) journalVerdict(job verifyJob, res verifyResult) {
	if g.commits == nil {
		return
	}
	e := journal.Entry{
		Kind:        journal.KindVerdict,
		Time:        time.Now(),
		App:         job.app.name,
		Device:      job.device,
		DictVersion: job.dictVersion,
	}
	switch {
	case res.err != nil:
		e.Outcome = journal.OutcomeError
		e.Detail = res.err.Error()
	case res.verdict.OK:
		e.Outcome = journal.OutcomeOK
	case res.verdict.Code == verify.ReasonInconclusive:
		e.Outcome = journal.OutcomeInconclusive
		e.Code = res.verdict.Code
		e.Detail = res.verdict.Detail
	default:
		e.Outcome = journal.OutcomeAttack
		e.Code = res.verdict.Code
		e.Detail = res.verdict.Detail
	}
	g.handOff(pendingRecord{e: e, chal: job.chal, reports: job.reports})
}

// journalDict hands one live dictionary version (the registration seed
// or a mining promotion) to the committer. Callers hand it off before
// they publish the version, and the queue is FIFO, so its record
// precedes every verdict that names it — replay resolves each verdict's
// dictVersion from the records before it.
func (g *Gateway) journalDict(app string, version uint64, encoded []byte) {
	if g.commits == nil {
		return
	}
	g.handOff(pendingRecord{e: journal.Entry{
		Kind:        journal.KindDict,
		Time:        time.Now(),
		App:         app,
		DictVersion: version,
		Payload:     encoded,
	}})
}
