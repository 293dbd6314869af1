// Package obs is the reproduction's dependency-free observability core:
// atomic counters and gauges, ring-buffered latency histograms with
// p50/p95/p99, per-query tracing (trace.go), an admin HTTP surface
// (http.go), and build metadata (buildinfo.go).
//
// Collection is globally gated: every metric mutation first loads one
// atomic bool, so with observability disabled (the default) an
// instrumented hot path pays a single predictable branch and no stores.
// Enable it process-wide with SetEnabled(true) — cmd/qss does so when
// -admin is given — and read everything back with Snapshot, the API the
// tests and the admin endpoint share.
//
// Metric names follow the Prometheus style (snake_case, optional
// {label="value"} suffix, _total for counters, _ns for nanosecond
// histograms); docs/observability.md is the catalogue.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// enabled is the global collection gate. Disabled metrics mutations
// return after one atomic load.
var enabled atomic.Bool

// SetEnabled turns metric collection on or off process-wide and returns
// the previous setting (so tests can restore it).
func SetEnabled(on bool) (prev bool) { return enabled.Swap(on) }

// Enabled reports whether metric collection is on.
func Enabled() bool { return enabled.Load() }

// Now returns the current time when collection is enabled and the zero
// Time otherwise. Pair it with Histogram.ObserveSince so a disabled hot
// path skips both the clock read and the store:
//
//	start := obs.Now()
//	... work ...
//	hist.ObserveSince(start)
func Now() time.Time {
	if !enabled.Load() {
		return time.Time{}
	}
	return time.Now()
}

// A Counter is a monotonically increasing metric.
type Counter struct {
	name string
	v    atomic.Int64
}

// Name returns the registered metric name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by n when collection is enabled.
func (c *Counter) Add(n int64) {
	if !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Inc is Add(1).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// A Gauge is a metric that can go up and down.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Name returns the registered metric name.
func (g *Gauge) Name() string { return g.name }

// Set stores v when collection is enabled.
func (g *Gauge) Set(v int64) {
	if !enabled.Load() {
		return
	}
	g.v.Store(v)
}

// Add shifts the gauge by delta when collection is enabled.
func (g *Gauge) Add(delta int64) {
	if !enabled.Load() {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 { return g.v.Load() }

// ringSize is the histogram sample window (a power of two so the write
// cursor wraps with a mask).
const ringSize = 1 << 10

// A Histogram records int64 observations (latencies in nanoseconds, by
// convention) into a fixed ring buffer. Count and Sum are all-time;
// min/max and the percentiles in a snapshot describe the most recent
// ringSize observations. Writers only append atomically — concurrent
// Observe calls never block each other. The ring is allocated by the
// first observation, so a histogram that never records (collection off,
// or an idle per-subscription series) costs a few words, not 8KB.
type Histogram struct {
	name  string
	count atomic.Int64
	sum   atomic.Int64
	idx   atomic.Int64
	ring  atomic.Pointer[[ringSize]atomic.Int64]
}

// Name returns the registered metric name.
func (h *Histogram) Name() string { return h.name }

// Observe records one sample when collection is enabled.
func (h *Histogram) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	h.observe(v)
}

func (h *Histogram) observe(v int64) {
	r := h.ring.Load()
	if r == nil {
		// Concurrent first observers race to install a ring; the losers
		// use the winner's. The ring is in place before count moves, so a
		// Stats that sees a sample also sees the ring.
		r = new([ringSize]atomic.Int64)
		if !h.ring.CompareAndSwap(nil, r) {
			r = h.ring.Load()
		}
	}
	h.count.Add(1)
	h.sum.Add(v)
	i := h.idx.Add(1) - 1
	r[i&(ringSize-1)].Store(v)
}

// ObserveSince records the nanoseconds elapsed since start, which must
// come from obs.Now(). A zero start (collection was disabled at the
// time) records nothing, so an enable racing a measurement never logs a
// bogus epoch-sized latency.
func (h *Histogram) ObserveSince(start time.Time) {
	if start.IsZero() || !enabled.Load() {
		return
	}
	h.observe(int64(time.Since(start)))
}

// HistogramStats is a point-in-time summary of a histogram.
type HistogramStats struct {
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Mean   float64 `json:"mean"`
	Min    int64   `json:"min"`
	Max    int64   `json:"max"`
	P50    int64   `json:"p50"`
	P95    int64   `json:"p95"`
	P99    int64   `json:"p99"`
	Window int     `json:"window"` // samples the percentiles cover
}

// Stats summarizes the histogram: all-time count/sum/mean, and
// min/max/p50/p95/p99 over the retained window.
func (h *Histogram) Stats() HistogramStats {
	st := HistogramStats{Count: h.count.Load(), Sum: h.sum.Load()}
	if st.Count == 0 {
		return st
	}
	st.Mean = float64(st.Sum) / float64(st.Count)
	n := st.Count
	if n > ringSize {
		n = ringSize
	}
	r := h.ring.Load()
	samples := make([]int64, n)
	for i := range samples {
		samples[i] = r[i].Load()
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	st.Window = int(n)
	st.Min = samples[0]
	st.Max = samples[n-1]
	pick := func(p int64) int64 { return samples[(n-1)*p/100] }
	st.P50, st.P95, st.P99 = pick(50), pick(95), pick(99)
	return st
}

// A Registry holds named metrics. The zero value is not usable; call
// NewRegistry. Registration is idempotent per (kind, name): asking for
// an existing name returns the existing metric, so package-level metric
// variables and dynamically named metrics (per-subscription histograms)
// coexist.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() int64
	hists      map[string]*Histogram
	holds      map[*Histogram]int // AcquireHistogram holders per series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]func() int64),
		hists:      make(map[string]*Histogram),
		holds:      make(map[*Histogram]int),
	}
}

// Default is the process-wide registry that the package-level helpers
// and Snapshot use.
var Default = NewRegistry()

// NewCounter registers (or fetches) a counter in the registry.
func (r *Registry) NewCounter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// NewGauge registers (or fetches) a gauge in the registry.
func (r *Registry) NewGauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// RegisterGaugeFunc registers a gauge computed by fn at snapshot time
// (for readings derived from live state, like buffer depths). A
// re-registration under the same name replaces the function.
func (r *Registry) RegisterGaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
}

// NewHistogram registers (or fetches) a histogram in the registry.
func (r *Registry) NewHistogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{name: name}
	r.hists[name] = h
	return h
}

// AcquireHistogram registers (or fetches) a histogram like NewHistogram
// and counts the caller as one of its holders. ReleaseHistogram drops
// that hold and unregisters the series once its last holder has released
// it, so a dynamically named series (one per subscription) does not
// outlive its owners, while owners that share a name share one series.
// A name should be either acquired or fetched with NewHistogram, not both.
func (r *Registry) AcquireHistogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{name: name}
		r.hists[name] = h
	}
	r.holds[h]++
	return h
}

// ReleaseHistogram drops one hold taken by AcquireHistogram. Holders of a
// released histogram may keep observing into it; once unregistered, the
// registry just stops reporting it.
func (r *Registry) ReleaseHistogram(h *Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.holds[h] {
	case 0:
		return
	case 1:
		delete(r.holds, h)
		if r.hists[h.name] == h {
			delete(r.hists, h.name)
		}
	default:
		r.holds[h]--
	}
}

// Package-level helpers against Default.

// NewCounter registers (or fetches) a counter in the default registry.
func NewCounter(name string) *Counter { return Default.NewCounter(name) }

// NewGauge registers (or fetches) a gauge in the default registry.
func NewGauge(name string) *Gauge { return Default.NewGauge(name) }

// RegisterGaugeFunc registers a computed gauge in the default registry.
func RegisterGaugeFunc(name string, fn func() int64) { Default.RegisterGaugeFunc(name, fn) }

// NewHistogram registers (or fetches) a histogram in the default registry.
func NewHistogram(name string) *Histogram { return Default.NewHistogram(name) }

// AcquireHistogram registers (or fetches) and holds a histogram in the
// default registry.
func AcquireHistogram(name string) *Histogram { return Default.AcquireHistogram(name) }

// ReleaseHistogram drops a hold on a histogram of the default registry.
func ReleaseHistogram(h *Histogram) { Default.ReleaseHistogram(h) }

// Snap is a point-in-time copy of every registered metric, in the shape
// the admin endpoint serves as JSON and the tests assert against.
type Snap struct {
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]int64          `json:"gauges"`
	Histograms map[string]HistogramStats `json:"histograms"`
}

// Counter returns a counter's value (0 when absent).
func (s *Snap) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns a gauge's value (0 when absent).
func (s *Snap) Gauge(name string) int64 { return s.Gauges[name] }

// Histogram returns a histogram's stats (zero when absent).
func (s *Snap) Histogram(name string) HistogramStats { return s.Histograms[name] }

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() *Snap {
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	funcs := make(map[string]func() int64, len(r.gaugeFuncs))
	for n, fn := range r.gaugeFuncs {
		funcs[n] = fn
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.Unlock()

	s := &Snap{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)+len(funcs)),
		Histograms: make(map[string]HistogramStats, len(hists)),
	}
	for _, c := range counters {
		s.Counters[c.name] = c.Value()
	}
	for _, g := range gauges {
		s.Gauges[g.name] = g.Value()
	}
	// Computed gauges run outside the registry lock: they may take other
	// locks (a server's mu) that must not nest under ours.
	for n, fn := range funcs {
		s.Gauges[n] = fn()
	}
	for _, h := range hists {
		s.Histograms[h.name] = h.Stats()
	}
	return s
}

// Snapshot copies the default registry's current values.
func Snapshot() *Snap { return Default.Snapshot() }

// LabeledName renders a metric name with one label, in the Prometheus
// style: LabeledName("qss_poll_ns", "sub", "R") = `qss_poll_ns{sub="R"}`.
func LabeledName(base, label, value string) string {
	return fmt.Sprintf("%s{%s=%q}", base, label, value)
}
