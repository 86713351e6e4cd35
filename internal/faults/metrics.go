package faults

import "raptrack/internal/obs"

// RegisterMetrics exports the injector's fault counters into reg as the
// labeled family raptrack_injected_faults_total{layer,kind}, collected
// at scrape time from Counts — the registry stays the single source of
// truth without a second counting system inside the injector.
//
// A zero-plan injector registers an all-zero family, which deployments
// use to keep the fault series present (and provably quiet) on
// production scrapes; chaos harnesses register their seeded injectors
// over the same names.
func (in *Injector) RegisterMetrics(reg *obs.Registry) {
	reg.CounterVecFunc("raptrack_injected_faults_total",
		"Faults injected by the chaos schedule, by stack layer and kind.",
		[]string{"layer", "kind"},
		func() []obs.Sample {
			c := in.Counts()
			return []obs.Sample{
				{Labels: []string{"hardware", "packet_drop"}, Value: float64(c.PacketDrops)},
				{Labels: []string{"hardware", "packet_corrupt"}, Value: float64(c.PacketCorruptions)},
				{Labels: []string{"hardware", "watermark_suppress"}, Value: float64(c.WatermarkSuppressions)},
				{Labels: []string{"hardware", "dwt_misfire"}, Value: float64(c.DWTMisfires)},
				{Labels: []string{"hardware", "arm_jitter"}, Value: float64(c.ArmJitters)},
				{Labels: []string{"wire", "read_flip"}, Value: float64(c.ReadFlips)},
				{Labels: []string{"wire", "write_flip"}, Value: float64(c.WriteFlips)},
				{Labels: []string{"wire", "stall"}, Value: float64(c.Stalls)},
				{Labels: []string{"wire", "partial_write"}, Value: float64(c.PartialWrites)},
				{Labels: []string{"wire", "disconnect"}, Value: float64(c.Disconnects)},
				{Labels: []string{"gateway", "verify_panic"}, Value: float64(c.VerifyPanics)},
				{Labels: []string{"gateway", "verify_stall"}, Value: float64(c.VerifyStalls)},
				{Labels: []string{"disk", "short_write"}, Value: float64(c.DiskShortWrites)},
				{Labels: []string{"disk", "write_err"}, Value: float64(c.DiskWriteErrs)},
				{Labels: []string{"disk", "fsync_err"}, Value: float64(c.DiskFsyncErrs)},
				{Labels: []string{"disk", "fsync_stall"}, Value: float64(c.DiskFsyncStalls)},
				{Labels: []string{"disk", "bit_flip"}, Value: float64(c.DiskBitFlips)},
				{Labels: []string{"disk", "torn_tail"}, Value: float64(c.TornTails)},
			}
		})
}
