package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestDisabledMetricsRecordNothing(t *testing.T) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	r := NewRegistry()
	c := r.NewCounter("c_total")
	g := r.NewGauge("g")
	h := r.NewHistogram("h_ns")
	c.Inc()
	c.Add(10)
	g.Set(5)
	g.Add(3)
	h.Observe(100)
	h.ObserveSince(Now())
	s := r.Snapshot()
	if s.Counter("c_total") != 0 || s.Gauge("g") != 0 || s.Histogram("h_ns").Count != 0 {
		t.Fatalf("disabled metrics mutated: %+v", s)
	}
	if !Now().IsZero() {
		t.Fatal("Now() should be zero while disabled")
	}
}

func TestEnabledMetrics(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	r := NewRegistry()
	c := r.NewCounter("c_total")
	g := r.NewGauge("g")
	c.Inc()
	c.Add(4)
	g.Set(7)
	g.Add(-2)
	r.RegisterGaugeFunc("fn", func() int64 { return 42 })
	s := r.Snapshot()
	if got := s.Counter("c_total"); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if got := s.Gauge("g"); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
	if got := s.Gauge("fn"); got != 42 {
		t.Errorf("gauge func = %d, want 42", got)
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	if r.NewCounter("x") != r.NewCounter("x") {
		t.Error("NewCounter not idempotent")
	}
	if r.NewGauge("x") != r.NewGauge("x") {
		t.Error("NewGauge not idempotent")
	}
	if r.NewHistogram("x") != r.NewHistogram("x") {
		t.Error("NewHistogram not idempotent")
	}
}

// TestAcquireReleaseHistogram: holders of one name share one series, and
// it stays registered until the last hold is released; releasing a stale
// or unheld histogram never removes a series someone else holds.
func TestAcquireReleaseHistogram(t *testing.T) {
	r := NewRegistry()
	registered := func() bool { _, ok := r.Snapshot().Histograms["h"]; return ok }
	a, b := r.AcquireHistogram("h"), r.AcquireHistogram("h")
	if a != b {
		t.Fatal("holders of one name got different histograms")
	}
	r.ReleaseHistogram(a)
	if !registered() {
		t.Fatal("series removed while a holder remains")
	}
	r.ReleaseHistogram(b)
	if registered() {
		t.Fatal("series still registered after its last release")
	}
	c := r.AcquireHistogram("h")
	r.ReleaseHistogram(a) // stale: a's holds are gone
	if !registered() || c == a {
		t.Fatal("a stale release touched the new holder's series")
	}
	r.ReleaseHistogram(c)
	if registered() {
		t.Fatal("series still registered after its last release")
	}
}

func TestHistogramPercentiles(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	r := NewRegistry()
	h := r.NewHistogram("lat_ns")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	st := h.Stats()
	if st.Count != 100 || st.Sum != 5050 || st.Window != 100 {
		t.Fatalf("count=%d sum=%d window=%d", st.Count, st.Sum, st.Window)
	}
	if st.Min != 1 || st.Max != 100 {
		t.Errorf("min=%d max=%d", st.Min, st.Max)
	}
	// (n-1)*p/100 over 1..100: p50 -> index 49 -> 50, p95 -> 95, p99 -> 99.
	if st.P50 != 50 || st.P95 != 95 || st.P99 != 99 {
		t.Errorf("p50=%d p95=%d p99=%d", st.P50, st.P95, st.P99)
	}
	if st.Mean != 50.5 {
		t.Errorf("mean=%v", st.Mean)
	}
}

func TestHistogramRingWrap(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	r := NewRegistry()
	h := r.NewHistogram("lat_ns")
	// Overfill the ring; the window must hold the newest ringSize values.
	for i := int64(0); i < ringSize+100; i++ {
		h.Observe(1000 + i)
	}
	st := h.Stats()
	if st.Count != ringSize+100 {
		t.Fatalf("count=%d", st.Count)
	}
	if st.Window != ringSize {
		t.Fatalf("window=%d", st.Window)
	}
	if st.Min < 1100 {
		t.Errorf("min=%d still holds an evicted sample", st.Min)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	r := NewRegistry()
	h := r.NewHistogram("lat_ns")
	c := r.NewCounter("c_total")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				h.Observe(i)
				c.Inc()
				if i%100 == 0 {
					_ = h.Stats()
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if st := h.Stats(); st.Count != 8000 {
		t.Errorf("histogram count = %d, want 8000", st.Count)
	}
}

func TestObserveSinceZeroStart(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_ns")
	// Collection toggled on after the start was taken while disabled:
	// nothing must be recorded.
	prev := SetEnabled(false)
	start := Now()
	SetEnabled(true)
	h.ObserveSince(start)
	SetEnabled(prev)
	if st := h.Stats(); st.Count != 0 {
		t.Errorf("zero start recorded a sample: %+v", st)
	}
}

func TestObserveSinceMeasures(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	r := NewRegistry()
	h := r.NewHistogram("lat_ns")
	start := Now()
	time.Sleep(time.Millisecond)
	h.ObserveSince(start)
	st := h.Stats()
	if st.Count != 1 || st.Min < int64(time.Millisecond) {
		t.Errorf("stats = %+v", st)
	}
}

func TestLabeledName(t *testing.T) {
	if got := LabeledName("qss_poll_ns", "sub", "R"); got != `qss_poll_ns{sub="R"}` {
		t.Errorf("LabeledName = %s", got)
	}
}

func TestPrometheusText(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	r := NewRegistry()
	r.NewCounter("a_total").Add(3)
	r.NewCounter(`b_total{to="x"}`).Add(1)
	r.NewCounter(`b_total{to="y"}`).Add(2)
	r.NewGauge("depth").Set(9)
	h := r.NewHistogram(`lat_ns{sub="R"}`)
	h.Observe(10)
	h.Observe(20)
	text := PrometheusText(r.Snapshot())
	for _, want := range []string{
		"# TYPE a_total counter\na_total 3\n",
		"# TYPE b_total counter\n",
		`b_total{to="x"} 1`,
		`b_total{to="y"} 2`,
		"# TYPE depth gauge\ndepth 9\n",
		"# TYPE lat_ns summary\n",
		`lat_ns{sub="R",quantile="0.5"}`,
		`lat_ns_sum{sub="R"} 30`,
		`lat_ns_count{sub="R"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus text missing %q in:\n%s", want, text)
		}
	}
	if strings.Count(text, "# TYPE b_total") != 1 {
		t.Error("TYPE line repeated for labeled variants")
	}
}

// TestHistogramRingIsLazy: a histogram that never records holds no ring —
// registering one allocates only the struct, well under the ring's 8KB —
// and snapshots as zeros. The first recorded sample allocates the ring
// once; later samples allocate nothing.
func TestHistogramRingIsLazy(t *testing.T) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	r := NewRegistry()
	h := r.NewHistogram("lazy_ns")
	if n := testing.AllocsPerRun(100, func() { h.Observe(5) }); n != 0 {
		t.Fatalf("Observe with collection off allocated %.0f times", n)
	}
	if h.ring.Load() != nil {
		t.Fatal("Observe with collection off allocated the ring")
	}
	if st := h.Stats(); st != (HistogramStats{}) {
		t.Fatalf("unobserved histogram snapshots as %+v, want zeros", st)
	}
	if size := unsafe.Sizeof(Histogram{}); size > 128 {
		t.Fatalf("an unobserved histogram is %d bytes; the ring must not be inline", size)
	}

	SetEnabled(true)
	// AllocsPerRun calls its function once more as a warm-up, so each call
	// gets a fresh histogram of its own.
	fresh := make([]Histogram, 2)
	i := 0
	first := testing.AllocsPerRun(1, func() { fresh[i].Observe(1); i++ })
	if first != 1 || fresh[1].ring.Load() == nil {
		t.Fatalf("a first Observe allocated %.0f times, want once (the ring)", first)
	}
	h.Observe(1)
	if n := testing.AllocsPerRun(100, func() { h.Observe(5) }); n != 0 {
		t.Fatalf("Observe into an allocated ring allocated %.0f times", n)
	}
	if st := h.Stats(); st.Count != 102 || st.Window != 102 || st.Min != 1 || st.Max != 5 {
		t.Fatalf("stats after 102 samples: %+v", st)
	}
}

// TestHistogramConcurrentFirstObserve: observers racing to install the
// ring all land in the one that wins; no sample goes to a discarded ring.
func TestHistogramConcurrentFirstObserve(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	const workers, each = 8, 100
	for round := 0; round < 20; round++ {
		h := &Histogram{name: "race_ns"}
		var start, done sync.WaitGroup
		start.Add(1)
		for w := 0; w < workers; w++ {
			done.Add(1)
			go func(v int64) {
				defer done.Done()
				start.Wait()
				for i := 0; i < each; i++ {
					h.Observe(v)
				}
			}(int64(w + 1))
		}
		start.Done()
		done.Wait()
		st := h.Stats()
		if st.Count != workers*each || st.Window != workers*each {
			t.Fatalf("round %d: count %d window %d, want %d", round, st.Count, st.Window, workers*each)
		}
		if st.Min < 1 || st.Max > workers {
			t.Fatalf("round %d: a sample was lost to a discarded ring: %+v", round, st)
		}
	}
}
