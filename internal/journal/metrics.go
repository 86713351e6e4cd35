package journal

import (
	"raptrack/internal/obs"
)

// fsyncBounds are the fsync-latency buckets (seconds). Commodity SSDs
// land in the sub-millisecond to low-millisecond range; the top buckets
// exist to make a dying disk visible before it escalates to errors.
var fsyncBounds = []float64{0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5}

// RegisterMetrics exposes the journal's accounting as the
// raptrack_journal_* metric families and installs the fsync-latency
// histogram. Call once per journal, before serving traffic.
func (j *Journal) RegisterMetrics(reg *obs.Registry) {
	type cf struct {
		name, help string
		read       func(Counters) uint64
	}
	for _, m := range []cf{
		{"raptrack_journal_appended_total", "Records written to the active segment.",
			func(c Counters) uint64 { return c.Appended }},
		{"raptrack_journal_rotated_total", "Segments sealed by rotation.",
			func(c Counters) uint64 { return c.Rotated }},
		{"raptrack_journal_recovered_total", "Records validated by the startup recovery scan.",
			func(c Counters) uint64 { return c.Recovered }},
		{"raptrack_journal_truncated_total", "Torn tail records truncated at startup.",
			func(c Counters) uint64 { return c.Truncated }},
		{"raptrack_journal_chain_breaks_total", "Broken hash chains detected at startup.",
			func(c Counters) uint64 { return c.ChainBreaks }},
		{"raptrack_journal_quarantined_total", "Segments moved aside by the quarantine policy.",
			func(c Counters) uint64 { return c.Quarantined }},
		{"raptrack_journal_shed_total", "Records diverted to the degraded-mode ring.",
			func(c Counters) uint64 { return c.Shed }},
		{"raptrack_journal_ring_dropped_total", "Degraded-mode ring evictions (oldest shed record lost).",
			func(c Counters) uint64 { return c.RingDropped }},
		{"raptrack_journal_write_errors_total", "Disk write, sync and rotation failures observed.",
			func(c Counters) uint64 { return c.WriteErrors }},
		{"raptrack_journal_fsyncs_total", "Fsyncs issued: one per committed batch, rotation seal or interval tick.",
			func(c Counters) uint64 { return c.Fsyncs }},
	} {
		read := m.read
		reg.CounterFunc(m.name, m.help, func() float64 {
			return float64(read(j.Counters()))
		})
	}
	reg.GaugeFunc("raptrack_journal_degraded",
		"1 when the journal is shedding records to the in-memory ring after a disk failure.",
		func() float64 {
			if j.Degraded() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("raptrack_journal_segments",
		"Segments on disk (sealed plus the active one).",
		func() float64 { return float64(j.SealedSegments() + 1) })
	reg.GaugeFunc("raptrack_journal_next_seq",
		"Sequence number the next appended record receives.",
		func() float64 { return float64(j.NextSeq()) })

	h := reg.Histogram("raptrack_journal_fsync_seconds",
		"Wall time per journal fsync.", fsyncBounds)
	j.fsyncObserve = h.ObserveDuration
}
