// Package faults is the deterministic chaos-injection subsystem: one
// seeded [Injector] drives fault schedules across all four layers of
// the attestation stack —
//
//   - simulated hardware (MTB packet drops/corruption, watermark
//     suppression driving buffer wraps, DWT comparator misfires, arming
//     jitter) via [Injector.InstrumentMTB] / [Injector.InstrumentDWT];
//   - the wire (bit flips, partial writes, stalls, mid-frame
//     disconnects) via [Injector.WrapConn];
//   - the gateway (verify panics and stalls) via [Injector.VerifyHook];
//   - the disk under the evidence journal (short writes, write and
//     fsync errors, fsync stalls, torn tails on simulated power loss,
//     cold-read bit flips) via [Injector.WrapFS].
//
// Determinism contract: an Injector owns a single rand.Rand behind a
// mutex, so a fixed seed and a fixed *sequence of decisions* replays
// exactly. Concurrent sessions interleave nondeterministically, so a
// chaos harness gives each session its own child via [Injector.Fork]
// with a stable label — per-session schedules then replay regardless of
// scheduling.
//
// Everything here is test/chaos machinery: production paths never
// construct an Injector, and all hooks are nil-safe no-ops when absent.
package faults

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"sync"
	"time"

	"raptrack/internal/trace"
)

// Plan sets per-event fault probabilities (0 disables, 1 always fires).
// A zero Plan injects nothing.
type Plan struct {
	// Simulated-hardware faults (InstrumentMTB / InstrumentDWT).
	PacketDrop        float64 // MTB capture miss per offered packet
	PacketCorrupt     float64 // single-bit SRAM/bus flip per packet
	WatermarkSuppress float64 // swallowed MTB_FLOW exception per firing
	DWTMisfire        float64 // comparator fails to assert per evaluation
	ArmJitterProb     float64 // extra arming latency per TSTART...
	ArmJitterMax      int     // ...uniform in [1, ArmJitterMax] instructions

	// Wire faults (WrapConn).
	ReadFlip     float64       // single-bit flip in received bytes, per Read
	WriteFlip    float64       // single-bit flip in sent bytes, per Write
	Stall        float64       // injected latency per Read/Write...
	StallFor     time.Duration // ...of this duration (default 1ms)
	PartialWrite float64       // Write delivers a strict prefix then errors
	Disconnect   float64       // peer vanishes mid-frame, per Read/Write

	// Gateway faults (VerifyHook).
	VerifyPanic    float64       // worker panics mid-verify
	VerifyStall    float64       // worker stalls...
	VerifyStallFor time.Duration // ...for this long (default 5ms)

	// Disk faults (WrapFS) against the evidence journal.
	DiskWriteShort    float64       // a strict prefix lands, then the write errors
	DiskWriteErr      float64       // write fails outright, nothing lands
	DiskFsyncErr      float64       // fsync reports failure (durability unknown)
	DiskFsyncStall    float64       // fsync stalls before it syncs...
	DiskFsyncStallFor time.Duration // ...for this long (default 5ms)
	DiskBitFlip       float64       // single-bit flip per whole-file read (cold rot)
}

// Counts is a snapshot of faults actually injected.
type Counts struct {
	PacketDrops           uint64
	PacketCorruptions     uint64
	WatermarkSuppressions uint64
	DWTMisfires           uint64
	ArmJitters            uint64

	ReadFlips     uint64
	WriteFlips    uint64
	Stalls        uint64
	PartialWrites uint64
	Disconnects   uint64

	VerifyPanics uint64
	VerifyStalls uint64

	DiskShortWrites uint64
	DiskWriteErrs   uint64
	DiskFsyncErrs   uint64
	DiskFsyncStalls uint64
	DiskBitFlips    uint64
	TornTails       uint64 // partial tails stranded by Crash
}

// Hardware totals the simulated-hardware faults — the ones that perturb
// evidence *before* it is signed. A chaos harness's no-false-accept
// invariant keys on this: an accepted verdict must come from an attempt
// whose Hardware() count is zero (wire faults, by contrast, are caught
// by authenticators and can never corrupt an accepted session).
func (c Counts) Hardware() uint64 {
	return c.PacketDrops + c.PacketCorruptions + c.WatermarkSuppressions +
		c.DWTMisfires + c.ArmJitters
}

// Wire totals the transport faults.
func (c Counts) Wire() uint64 {
	return c.ReadFlips + c.WriteFlips + c.Stalls + c.PartialWrites + c.Disconnects
}

// Disk totals the evidence-journal storage faults.
func (c Counts) Disk() uint64 {
	return c.DiskShortWrites + c.DiskWriteErrs + c.DiskFsyncErrs +
		c.DiskFsyncStalls + c.DiskBitFlips + c.TornTails
}

// Total sums every injected fault.
func (c Counts) Total() uint64 {
	return c.Hardware() + c.Wire() + c.VerifyPanics + c.VerifyStalls + c.Disk()
}

// Injector makes seeded fault decisions. Safe for concurrent use; see
// the package comment for the determinism contract.
type Injector struct {
	seed uint64
	plan Plan

	mu sync.Mutex
	r  *rand.Rand
	c  Counts
}

// New returns an Injector replaying the fault schedule of (seed, plan).
func New(seed uint64, plan Plan) *Injector {
	return &Injector{
		seed: seed,
		plan: plan,
		r:    rand.New(rand.NewSource(int64(seed))),
	}
}

// Fork derives a child Injector with the same Plan whose seed is a hash
// of the parent's seed and label. Same (seed, label) → same child
// schedule, independent of when or from which goroutine Fork is called.
func (in *Injector) Fork(label string) *Injector {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], in.seed)
	h.Write(b[:])
	h.Write([]byte(label))
	child := binary.LittleEndian.Uint64(h.Sum(nil)[:8])
	return New(child, in.plan)
}

// Plan returns the injector's fault plan.
func (in *Injector) Plan() Plan { return in.plan }

// Counts returns a snapshot of the faults injected so far.
func (in *Injector) Counts() Counts {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.c
}

// roll draws one decision; count is bumped under the same lock so Counts
// snapshots are consistent with the schedule.
func (in *Injector) roll(p float64, count *uint64) bool {
	if p <= 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.r.Float64() >= p {
		return false
	}
	*count++
	return true
}

// intn draws a uniform value in [1, n] under the injector lock.
func (in *Injector) intn(n int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return 1 + in.r.Intn(n)
}

// InstrumentMTB attaches the injector's hardware-fault schedule to m.
// Corruption flips a single uniformly-chosen bit across the 64-bit
// (src, dst) pair — the minimal SRAM upset the authenticators must catch.
func (in *Injector) InstrumentMTB(m *trace.MTB) {
	m.Faults = &trace.MTBFaults{
		Drop: func(src, dst uint32) bool {
			return in.roll(in.plan.PacketDrop, &in.c.PacketDrops)
		},
		Corrupt: func(src, dst uint32) (uint32, uint32) {
			if !in.roll(in.plan.PacketCorrupt, &in.c.PacketCorruptions) {
				return src, dst
			}
			bit := in.intn(64) - 1
			if bit < 32 {
				src ^= 1 << bit
			} else {
				dst ^= 1 << (bit - 32)
			}
			return src, dst
		},
		SuppressWatermark: func() bool {
			return in.roll(in.plan.WatermarkSuppress, &in.c.WatermarkSuppressions)
		},
		ArmJitter: func() int {
			if in.plan.ArmJitterMax <= 0 ||
				!in.roll(in.plan.ArmJitterProb, &in.c.ArmJitters) {
				return 0
			}
			return in.intn(in.plan.ArmJitterMax)
		},
	}
}

// InstrumentDWT attaches the comparator-misfire schedule to d.
func (in *Injector) InstrumentDWT(d *trace.DWT) {
	d.Misfire = func(trace.RangeRule) bool {
		return in.roll(in.plan.DWTMisfire, &in.c.DWTMisfires)
	}
}

// VerifyHook returns a gateway verify hook (install via server.WithFaults)
// that panics or stalls verify workers per the plan.
func (in *Injector) VerifyHook() func(app string) {
	return func(app string) {
		if in.roll(in.plan.VerifyStall, &in.c.VerifyStalls) {
			d := in.plan.VerifyStallFor
			if d <= 0 {
				d = 5 * time.Millisecond
			}
			time.Sleep(d)
		}
		if in.roll(in.plan.VerifyPanic, &in.c.VerifyPanics) {
			panic("faults: injected verify panic (app " + app + ")")
		}
	}
}
