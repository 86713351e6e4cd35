// Package obs is the unified observability layer: a lock-free metrics
// registry ([Registry]) that is the single source of truth for every
// counter the serving stack exposes, per-session span tracing ([Trace],
// [Ring]) attributing attestation latency to typed protocol stages, and
// an admin HTTP endpoint ([AdminHandler]) serving Prometheus text-format
// metrics, recent session traces, and pprof.
//
// The paper's whole pitch is *measurable* efficiency — per-branch
// overhead, log volume, attestation latency against TRACES-style
// instrumentation — so the reproduction's gateway carries the same
// discipline at service scale: one scrape answers where attestation time
// goes.
//
// # Hot-path cost model
//
// Counters and histograms are plain atomics; labeled families resolve
// label values through a copy-on-write map (lock-free reads, a mutex
// only on first-use registration of a new label set), and callers are
// expected to pre-resolve hot children at construction time anyway.
// Func-backed metrics ([Registry.GaugeFunc] and friends) are evaluated
// only at scrape time, so values that already live elsewhere (cache
// occupancy, breaker state, fault schedules) cost nothing per session.
//
// The package depends only on the standard library, so every layer of
// the stack — server, remote, faults — may import it without cycles.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// MetricType is the Prometheus exposition type of one metric family.
type MetricType uint8

const (
	TypeCounter MetricType = iota
	TypeGauge
	TypeHistogram
)

func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing value. All methods are safe for
// concurrent use and never block.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that may go up and down (stored as an int64).
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram. Bounds are upper bucket limits
// in ascending order; an implicit +Inf bucket catches the tail. Observe
// is two atomic adds plus a CAS loop for the sum — no locks.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // per-bucket (not cumulative); len(bounds)+1
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // smallest i with bounds[i] >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistogramSnapshot is a point-in-time read of a histogram. Counts are
// per-bucket (not cumulative) and include the +Inf bucket last.
type HistogramSnapshot struct {
	Bounds []float64 // upper limits, ascending; +Inf implicit
	Counts []uint64  // len(Bounds)+1
	Count  uint64
	Sum    float64
}

// Snapshot reads the histogram once. Buckets observed mid-read may skew
// Count by a few observations; the numbers are exact once quiescent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Sample is one value of a func-backed labeled family, produced at
// scrape time.
type Sample struct {
	Labels []string
	Value  float64
}

// child is one labeled instance of a family.
type child struct {
	values []string
	metric any // *Counter, *Gauge, or *Histogram
}

// family is one exposition block: a name, a type, and either concrete
// children (lock-free copy-on-write map) or a scrape-time collect func.
type family struct {
	name   string
	help   string
	typ    MetricType
	labels []string
	bounds []float64 // histograms only

	mu       sync.Mutex // guards child insertion
	children atomic.Pointer[map[string]*child]

	collect func() []Sample // func-backed families (exclusive with children)
}

// labelKey joins label values with a byte that cannot occur in them
// unescaped ambiguity-free enough for map keying.
func labelKey(values []string) string { return strings.Join(values, "\xff") }

func (f *family) getOrCreate(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	if m := f.children.Load(); m != nil {
		if c, ok := (*m)[key]; ok {
			return c.metric
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	old := f.children.Load()
	if old != nil {
		if c, ok := (*old)[key]; ok {
			return c.metric
		}
	}
	var metric any
	switch f.typ {
	case TypeCounter:
		metric = &Counter{}
	case TypeGauge:
		metric = &Gauge{}
	default:
		metric = newHistogram(f.bounds)
	}
	next := make(map[string]*child, 1)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	vals := make([]string, len(values))
	copy(vals, values)
	next[key] = &child{values: vals, metric: metric}
	f.children.Store(&next)
	return metric
}

// CounterVec is a labeled family of counters.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on
// first use. Pre-resolve hot children at construction time.
func (v *CounterVec) With(values ...string) *Counter { return v.f.getOrCreate(values).(*Counter) }

// GaugeVec is a labeled family of gauges.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.getOrCreate(values).(*Gauge) }

// HistogramVec is a labeled family of histograms sharing one bucket
// layout.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.getOrCreate(values).(*Histogram)
}

// Registry holds metric families in registration order and renders them
// in Prometheus text exposition format. Registration is cheap but
// mutex-guarded; metric updates never touch the registry.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

var metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
var labelNameRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// register validates and installs one family. Misuse — a bad name, a
// duplicate, a counter without the _total suffix — is a programmer
// error and panics at construction time, never at scrape time.
func (r *Registry) register(name, help string, typ MetricType, labels []string, bounds []float64, collect func() []Sample) *family {
	if !metricNameRE.MatchString(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	if typ == TypeCounter && !strings.HasSuffix(name, "_total") {
		panic("obs: counter " + name + " must end in _total")
	}
	for _, l := range labels {
		if !labelNameRE.MatchString(l) {
			panic("obs: metric " + name + ": invalid label name " + strconv.Quote(l))
		}
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram " + name + ": bounds not ascending")
		}
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, bounds: bounds, collect: collect}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic("obs: duplicate metric " + name)
	}
	r.byName[name] = f
	r.fams = append(r.fams, f)
	return f
}

// Counter registers a plain counter. The name must end in _total.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, TypeCounter, nil, nil, nil)
	return f.getOrCreate(nil).(*Counter)
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, TypeCounter, labels, nil, nil)}
}

// Gauge registers a plain gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, TypeGauge, nil, nil, nil)
	return f.getOrCreate(nil).(*Gauge)
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, TypeGauge, labels, nil, nil)}
}

// Histogram registers a fixed-bucket histogram with the given upper
// bounds in ascending order (seconds, for latency histograms).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.register(name, help, TypeHistogram, nil, bounds, nil)
	return f.getOrCreate(nil).(*Histogram)
}

// HistogramVec registers a labeled histogram family sharing one bucket
// layout.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, TypeHistogram, labels, bounds, nil)}
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// the bridge for values that already live elsewhere (queue depths,
// cache occupancy) without a second counting system.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.register(name, help, TypeGauge, nil, nil, func() []Sample {
		return []Sample{{Value: f()}}
	})
}

// CounterFunc registers a counter read at scrape time from an existing
// monotone source. The name must end in _total.
func (r *Registry) CounterFunc(name, help string, f func() float64) {
	r.register(name, help, TypeCounter, nil, nil, func() []Sample {
		return []Sample{{Value: f()}}
	})
}

// GaugeVecFunc registers a labeled gauge family collected at scrape
// time.
func (r *Registry) GaugeVecFunc(name, help string, labels []string, collect func() []Sample) {
	r.register(name, help, TypeGauge, labels, nil, collect)
}

// CounterVecFunc registers a labeled counter family collected at scrape
// time.
func (r *Registry) CounterVecFunc(name, help string, labels []string, collect func() []Sample) {
	r.register(name, help, TypeCounter, labels, nil, collect)
}

// --- exposition ------------------------------------------------------

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP line: backslash and newline only.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelPairs renders {a="x",b="y"}; extras appends further pairs as
// alternating name/value strings (le for histogram buckets). Returns ""
// when there is no pair.
func labelPairs(names, values []string, extras ...string) string {
	if len(names) == 0 && len(extras) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	emit := func(n, v string) {
		if b.Len() > 1 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	for i, n := range names {
		emit(n, values[i])
	}
	for i := 0; i+1 < len(extras); i += 2 {
		emit(extras[i], extras[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// writeHeader emits the HELP/TYPE comment block for one family.
func writeHeader(bw *bufio.Writer, f *family) {
	if f.help != "" {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
}

// writeSamples renders one family's sample lines (no header).
func (f *family) writeSamples(bw *bufio.Writer) {
	if f.collect != nil {
		for _, s := range f.collect() {
			fmt.Fprintf(bw, "%s%s %s\n", f.name, labelPairs(f.labels, s.Labels), formatFloat(s.Value))
		}
		return
	}
	m := f.children.Load()
	if m == nil {
		return
	}
	kids := make([]*child, 0, len(*m))
	for _, c := range *m {
		kids = append(kids, c)
	}
	sort.Slice(kids, func(i, j int) bool {
		return labelKey(kids[i].values) < labelKey(kids[j].values)
	})
	for _, c := range kids {
		switch metric := c.metric.(type) {
		case *Counter:
			fmt.Fprintf(bw, "%s%s %d\n", f.name, labelPairs(f.labels, c.values), metric.Value())
		case *Gauge:
			fmt.Fprintf(bw, "%s%s %d\n", f.name, labelPairs(f.labels, c.values), metric.Value())
		case *Histogram:
			s := metric.Snapshot()
			var cum uint64
			for i, cnt := range s.Counts {
				cum += cnt
				le := "+Inf"
				if i < len(s.Bounds) {
					le = formatFloat(s.Bounds[i])
				}
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, labelPairs(f.labels, c.values, "le", le), cum)
			}
			fmt.Fprintf(bw, "%s_sum%s %s\n", f.name, labelPairs(f.labels, c.values), formatFloat(s.Sum))
			fmt.Fprintf(bw, "%s_count%s %d\n", f.name, labelPairs(f.labels, c.values), cum)
		}
	}
}

// WritePrometheus renders every registered family in text exposition
// format (the format served on /metrics). Families appear in
// registration order; children within a family are sorted by label
// values so scrapes are deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		writeHeader(bw, f)
		f.writeSamples(bw)
	}
	return bw.Flush()
}
