// Command fleetsim drives one attestation gateway end-to-end with a
// synthetic prover fleet and writes BENCH_fleet.json.
//
// Two phases, each against a fresh gateway:
//
//  1. scaling — closed-loop load over latency-shaped device links at
//     -slots/4, -slots/2 and -slots session slots: sessions are
//     link-bound (per-session CPU stays far below one core), so
//     aggregate sessions/s must scale with the slot count on the same
//     machine — capacity is slots.
//  2. wave — the full fleet (>= 10k provers) under a diurnal arrival
//     wave followed by a thundering herd after a simulated firmware
//     push, with straggler devices on slow lossy links and online
//     mining promoting a live dictionary. Reports p50/p99 verdict
//     latency, shed/retry volume and dictionary promotions.
//
// The run is seeded; `-smoke` selects the pinned CI profile (finishes
// well under a minute on one core).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"raptrack/internal/faults"
	"raptrack/internal/server"
)

// benchDoc is the BENCH_fleet.json schema.
type benchDoc struct {
	Suite      string     `json:"suite"`
	Seed       uint64     `json:"seed"`
	Smoke      bool       `json:"smoke"`
	Apps       []string   `json:"apps"`
	Provers    int        `json:"provers"`
	ElapsedSec float64    `json:"elapsed_sec"`
	Scaling    scalingDoc `json:"scaling"`
	Wave       waveDoc    `json:"wave"`
}

type legDoc struct {
	Slots          int     `json:"slots"`
	Sessions       int     `json:"sessions"`
	OK             int     `json:"ok"`
	SessionsPerSec float64 `json:"sessions_per_sec"`
	P50Ms          float64 `json:"p50_ms"`
	P99Ms          float64 `json:"p99_ms"`
}

type scalingDoc struct {
	LinkLatencyMs float64  `json:"link_latency_ms"`
	DurationSec   float64  `json:"leg_duration_sec"`
	Legs          []legDoc `json:"legs"`
	Speedup4x     float64  `json:"speedup_4x"` // -slots leg over the -slots/4 leg
	Target3xMet   bool     `json:"target_3x_met"`
}

type waveDoc struct {
	Slots          int     `json:"slots"`
	Provers        int     `json:"provers"`
	Stragglers     int     `json:"stragglers"`
	Sessions       int     `json:"sessions"`
	OK             int     `json:"ok"`
	Rejected       int     `json:"rejected"`
	Failed         int     `json:"failed"`
	BusyRetries    int     `json:"busy_retries"`
	GatewaySheds   uint64  `json:"gateway_sheds"`
	ElapsedSec     float64 `json:"elapsed_sec"`
	SessionsPerSec float64 `json:"sessions_per_sec"`
	P50Ms          float64 `json:"p50_ms"`
	P99Ms          float64 `json:"p99_ms"`
	DictPromotions uint64  `json:"dict_promotions"`
	DictPaths      int     `json:"dict_paths"`
}

func main() {
	var (
		out      = flag.String("out", "BENCH_fleet.json", "output report path")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		appsFlag = flag.String("apps", "prime", "comma-separated workload apps")
		provers  = flag.Int("provers", 10000, "simulated fleet size")
		slots    = flag.Int("slots", 32, "gateway session slots (scaling sweeps slots/4, slots/2, slots)")
		baseLat  = flag.Duration("link-latency", time.Millisecond, "base device link latency per protocol round trip")
		legDur   = flag.Duration("leg-duration", 8*time.Second, "measurement window per scaling leg")
		diurnal  = flag.Duration("diurnal", 12*time.Second, "wave-phase diurnal window")
		herd     = flag.Duration("herd-spread", 4*time.Second, "firmware-push herd arrival spread")
		smoke    = flag.Bool("smoke", false, "pinned CI profile: shorter windows, same fleet size")
	)
	flag.Parse()
	if *smoke {
		*legDur = 2500 * time.Millisecond
		*diurnal = 4 * time.Second
		*herd = 2500 * time.Millisecond
	}
	if *slots < 4 {
		fatal(fmt.Errorf("-slots must be at least 4, got %d", *slots))
	}

	begin := time.Now()
	names := strings.Split(*appsFlag, ",")
	specs := make([]*appSpec, 0, len(names))
	for _, n := range names {
		n = strings.TrimSpace(n)
		t0 := time.Now()
		s, err := loadApp(n)
		if err != nil {
			fatal(err)
		}
		specs = append(specs, s)
		fmt.Printf("provisioned %-12s (offline link %.1fs)\n", n, time.Since(t0).Seconds())
	}
	ts := newTemplateStore(specs)
	for _, s := range specs {
		t0 := time.Now()
		if _, err := ts.get(s.name, nil); err != nil {
			fatal(err)
		}
		fmt.Printf("recorded  %-12s base template (%.1fs)\n", s.name, time.Since(t0).Seconds())
	}
	rng := rand.New(rand.NewSource(int64(*seed)))
	fleet := buildFleet(*provers, specs, *baseLat, 5, rng)

	doc := benchDoc{
		Suite:   "fleet",
		Seed:    *seed,
		Smoke:   *smoke,
		Apps:    names,
		Provers: len(fleet),
	}

	doc.Scaling = runScaling(specs, ts, fleet, *slots, *baseLat, *legDur)
	doc.Wave = runWave(specs, ts, fleet, *slots, *diurnal, *herd, *seed, rng)
	doc.ElapsedSec = round2(time.Since(begin).Seconds())

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%.1fs total)\n", *out, doc.ElapsedSec)
	if !doc.Scaling.Target3xMet {
		fmt.Fprintf(os.Stderr, "fleetsim: warning: %d-slot speedup %.2fx over %d slots below the 3x target\n",
			*slots, doc.Scaling.Speedup4x, *slots/4)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fleetsim:", err)
	os.Exit(1)
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

// collector aggregates session results across driver goroutines.
type collector struct {
	mu       sync.Mutex
	lats     []time.Duration
	ok       int
	rejected int
	failed   int
	busy     int
}

func (c *collector) add(r sessionResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.busy += r.busy
	switch {
	case r.err != nil:
		c.failed++
	case r.ok:
		c.ok++
		c.lats = append(c.lats, r.latency)
	default:
		c.rejected++
	}
}

// --- phase 1: scaling --------------------------------------------------

func runScaling(specs []*appSpec, ts *templateStore, fleet []*device, slots int, baseLat, legDur time.Duration) scalingDoc {
	// A capacity benchmark wants steady links: exclude stragglers and
	// cap the rotating corpus so each leg reuses warm verify caches.
	corpus := make([]*device, 0, 4000)
	for _, d := range fleet {
		if !d.straggler {
			corpus = append(corpus, d)
		}
		if len(corpus) == cap(corpus) {
			break
		}
	}
	doc := scalingDoc{
		LinkLatencyMs: float64(baseLat) / float64(time.Millisecond),
		DurationSec:   round2(legDur.Seconds()),
	}
	for _, n := range []int{slots / 4, slots / 2, slots} {
		leg := runScalingLeg(specs, ts, corpus, n, legDur)
		doc.Legs = append(doc.Legs, leg)
		fmt.Printf("scaling: %d slots -> %.0f sessions/s (p50 %.1fms p99 %.1fms)\n",
			n, leg.SessionsPerSec, leg.P50Ms, leg.P99Ms)
	}
	if base := doc.Legs[0].SessionsPerSec; base > 0 {
		doc.Speedup4x = round2(doc.Legs[len(doc.Legs)-1].SessionsPerSec / base)
	}
	doc.Target3xMet = doc.Speedup4x >= 3
	return doc
}

// runScalingLeg saturates a slots-slot gateway with exactly slots
// closed-loop drivers, so measured throughput is capacity, not
// contention between drivers racing for the same slot.
func runScalingLeg(specs []*appSpec, ts *templateStore, corpus []*device, slots int, dur time.Duration) legDoc {
	gw := newGateway(specs,
		server.WithMining(-1, 0, 0),
		server.WithSessionSlots(slots),
		server.WithBusyRetryAfter(10*time.Millisecond),
	)
	defer gw.Close()

	prof := retryProfile{maxAttempts: 4, backoffStep: 2 * time.Millisecond, backoffCap: 10 * time.Millisecond}
	coll := &collector{}
	start := time.Now()
	deadline := start.Add(dur)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < slots; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				d := corpus[int(next.Add(1)-1)%len(corpus)]
				coll.add(runSession(gw, ts, d, nil, prof))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	leg := legDoc{Slots: slots, Sessions: coll.ok + coll.rejected + coll.failed, OK: coll.ok}
	leg.SessionsPerSec = round2(float64(coll.ok) / elapsed.Seconds())
	leg.P50Ms, leg.P99Ms = quantiles(coll.lats)
	leg.P50Ms, leg.P99Ms = round2(leg.P50Ms), round2(leg.P99Ms)
	return leg
}

// --- phase 2: wave -----------------------------------------------------

type arrival struct {
	at  time.Duration
	dev *device
}

func runWave(specs []*appSpec, ts *templateStore, fleet []*device, slots int, diurnal, herdSpread time.Duration, seed uint64, rng *rand.Rand) waveDoc {
	gw := newGateway(specs,
		server.WithMining(32, 8, 32),
		server.WithSessionSlots(slots),
		server.WithBusyRetryAfter(40*time.Millisecond),
	)
	defer gw.Close()

	// Arrival schedule: a sin^2-shaped diurnal window in which a fifth
	// of the fleet checks in, then the firmware push — every device
	// re-attests within the herd spread.
	sched := make([]arrival, 0, len(fleet)+len(fleet)/5)
	for i, d := range fleet {
		if i%5 == 0 {
			for {
				x := rng.Float64()
				s := math.Sin(math.Pi * x)
				if rng.Float64() < s*s {
					sched = append(sched, arrival{time.Duration(float64(diurnal) * x), d})
					break
				}
			}
		}
		sched = append(sched, arrival{diurnal + time.Duration(rng.Int63n(int64(herdSpread))), d})
	}
	sort.Slice(sched, func(i, j int) bool { return sched[i].at < sched[j].at })

	// Stragglers speak over lossy links: a per-device forked injector
	// keeps the fault schedule deterministic under concurrency.
	master := faults.New(seed, faults.Plan{WriteFlip: 0.002, ReadFlip: 0.001})
	wrapFor := func(d *device) func(net.Conn) io.ReadWriter {
		if !d.straggler {
			return nil
		}
		inj := master.Fork(d.id)
		return func(c net.Conn) io.ReadWriter { return inj.WrapConn(c) }
	}

	prof := retryProfile{maxAttempts: 150, backoffStep: 30 * time.Millisecond, backoffCap: 1200 * time.Millisecond}
	coll := &collector{}
	stragglers := 0
	for _, d := range fleet {
		if d.straggler {
			stragglers++
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, a := range sched {
		if wait := a.at - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(d *device) {
			defer wg.Done()
			coll.add(runSession(gw, ts, d, wrapFor(d), prof))
		}(a.dev)
	}
	wg.Wait()
	elapsed := time.Since(start)
	_ = gw.Close() // drain post-verdict mining before reading the snapshot

	st := gw.Snapshot()
	doc := waveDoc{
		Slots:          slots,
		Provers:        len(fleet),
		Stragglers:     stragglers,
		Sessions:       len(sched),
		OK:             coll.ok,
		Rejected:       coll.rejected,
		Failed:         coll.failed,
		BusyRetries:    coll.busy,
		GatewaySheds:   st.SessionsRejected,
		ElapsedSec:     round2(elapsed.Seconds()),
		DictPromotions: st.DictPromotions,
		DictPaths:      st.DictPaths,
	}
	doc.SessionsPerSec = round2(float64(coll.ok) / elapsed.Seconds())
	doc.P50Ms, doc.P99Ms = quantiles(coll.lats)
	doc.P50Ms, doc.P99Ms = round2(doc.P50Ms), round2(doc.P99Ms)
	fmt.Printf("wave: %d sessions over %d provers in %.1fs -> %d ok, %d rejected, %d failed; %d busy retries, %d gateway sheds; %d dictionary promotions\n",
		doc.Sessions, doc.Provers, doc.ElapsedSec, doc.OK, doc.Rejected, doc.Failed, doc.BusyRetries, doc.GatewaySheds, doc.DictPromotions)
	return doc
}
