package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// workload is one traffic mix driven against a fresh gateway.
type workload struct {
	name string
	why  string
	apps []string // apps the sessions attest
	// rate is the open-loop arrival rate (sessions/s, Poisson); 0 selects
	// a closed loop over the generator's connections.
	rate float64
	// inFlight caps concurrent sessions (= connections): at most nproc.
	inFlight int
	// stream delivers evidence as SLICE frames recorded at this watermark
	// (0: batch RPRT frames).
	streamWatermark int
	// hijackEvery compromises one session in this many (0: none).
	hijackEvery int
	// pool, when set, draws every session from this many distinct recorded
	// runs per app, in a fixed cyclic order, sent uncompressed.
	pool int
}

// The four mixes. Each exists to load a different set of gateway layers;
// bench/README.md maps every per-layer metric to the workload it moves.
var workloads = []*workload{
	{
		name: "steady",
		why:  "open-loop 800 sessions/s of repeating evidence: the verdict-cache fast path with a live mined dictionary",
		apps: []string{"fibcall", "prime", "gps", "crc32"},
		rate: 800, inFlight: 2,
	},
	{
		name:     "diverse",
		why:      "closed loop over 6144 distinct runs per app, 1.3-2x the verdict cache: every session misses and runs the automaton",
		apps:     []string{"geiger", "ultrasonic"},
		inFlight: 2, pool: 6144,
	},
	{
		name:     "hostile",
		why:      "closed loop with one session in 8 hijacked by a unique gadget edge: uncached rejects on the interpreter",
		apps:     []string{"fibcall", "prime", "gps", "crc32"},
		inFlight: 2, hijackEvery: 8,
	},
	{
		name:     "stream",
		why:      "closed loop of SLICE-streamed sessions, one in 8 hijacked mid-run: per-slice feed, prefix walk and healing",
		apps:     []string{"fibcall", "prime", "gps", "crc32"},
		inFlight: 2, streamWatermark: 512, hijackEvery: 8,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// devicePool is how many distinct device identities a workload's
// sessions announce.
const devicePool = 1024

// job is one session the generator will run.
type job struct {
	seq    int64
	app    string
	device string
	// due is the open-loop due time as an offset from the start of load.
	due    time.Duration
	hijack bool
	// at positions the hijack: the fraction of the chain's eligible
	// packets that precede the gadget.
	at float64
	// pool indexes the app's recorded pool (pool workloads only).
	pool int
}

// jobGen yields a workload's session sequence. It is a pure function of
// (workload, seed): the same seed yields the same jobs and due times.
type jobGen struct {
	w       *workload
	rng     *rand.Rand
	devices []string
	seq     int64
	due     time.Duration
	hjSlot  int      // hijacked position in the current block
	hjCount int      // hijacks issued so far
	hjApps  []string // seeded app order the hijacks cycle through
	hjAt    map[string]float64
	poolPos map[string]int // next pool index per app
}

// phi is the golden-ratio step of the low-discrepancy sequence that
// spreads each app's hijack positions evenly over its evidence.
const phi = 0.6180339887498949

// mix64 hashes a seed with a salt (splitmix64 finalizer).
func mix64(seed, salt uint64) uint64 {
	z := seed ^ (salt+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func newJobGen(w *workload, seed uint64) *jobGen {
	var salt uint64
	for _, c := range w.name {
		salt = salt*131 + uint64(c)
	}
	rng := rand.New(rand.NewSource(int64(mix64(seed, salt))))
	g := &jobGen{w: w, rng: rng, poolPos: map[string]int{}, hjAt: map[string]float64{}}
	g.devices = make([]string, devicePool)
	for i := range g.devices {
		g.devices[i] = fmt.Sprintf("dev-%04d-%08x", i, rng.Uint32())
	}
	for _, app := range w.apps {
		if w.pool > 0 {
			g.poolPos[app] = rng.Intn(w.pool)
		}
		g.hjAt[app] = rng.Float64()
	}
	g.hjApps = append([]string(nil), w.apps...)
	rng.Shuffle(len(g.hjApps), func(i, j int) { g.hjApps[i], g.hjApps[j] = g.hjApps[j], g.hjApps[i] })
	return g
}

// next returns the following job. Not safe for concurrent use.
func (g *jobGen) next() job {
	w := g.w
	j := job{seq: g.seq, device: g.devices[g.rng.Intn(len(g.devices))]}
	if w.pool > 0 {
		// Pool workloads alternate apps and walk each app's pool cyclically.
		j.app = w.apps[int(g.seq)%len(w.apps)]
		j.pool = g.poolPos[j.app]
		g.poolPos[j.app] = (j.pool + 1) % w.pool
	} else {
		j.app = w.apps[g.rng.Intn(len(w.apps))]
	}
	if w.rate > 0 {
		g.due += time.Duration(g.rng.ExpFloat64() / w.rate * float64(time.Second))
		j.due = g.due
	}
	if w.hijackEvery > 0 {
		// Exactly one session per block of hijackEvery is compromised, at a
		// seeded slot. Reject cost grows steeply with the app and with how
		// deep in the evidence the gadget sits, so hijacks cycle through
		// the apps in a seeded order and each app's positions follow a
		// seeded golden-ratio sequence: every window then holds the same
		// spread of reject costs, and the seed moves only where they fall.
		pos := int(g.seq % int64(w.hijackEvery))
		if pos == 0 {
			g.hjSlot = g.rng.Intn(w.hijackEvery)
		}
		if pos == g.hjSlot {
			j.hijack = true
			j.app = g.hjApps[g.hjCount%len(g.hjApps)]
			j.at = g.hjAt[j.app]
			g.hjAt[j.app] = math.Mod(j.at+phi, 1)
			g.hjCount++
		}
	}
	g.seq++
	return j
}

// sample returns the first honest and hijacked jobs of the sequence, up
// to the given counts: the traced run's replay set.
func (g *jobGen) sample(honest, hijacked int) []job {
	if g.w.hijackEvery == 0 {
		hijacked = 0
	}
	var out []job
	for h, x := 0, 0; h < honest || x < hijacked; {
		j := g.next()
		switch {
		case j.hijack && x < hijacked:
			x++
		case !j.hijack && h < honest:
			h++
		default:
			continue
		}
		out = append(out, j)
	}
	return out
}
