package main

import (
	"runtime"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which it sorts in place; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(p/100*float64(len(xs))+0.999999) - 1
	return xs[max(0, min(rank, len(xs)-1))]
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return c[n/2]
	default:
		return (c[n/2-1] + c[n/2]) / 2
	}
}

// liveHeapMB collects garbage and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd fills the six end-to-end metrics shared by every workload:
// medians over the run's set-ups, heap readings and per-phase throughputs
// (operations over wall time of each timed phase), and latency
// percentiles over every operation.
func (r *report) endToEnd(setups, lat, heaps, rates []float64) {
	r.samples = len(lat)
	r.setups = len(setups)
	r.set("setup_s", median(setups), "s")
	r.set("latency_p50_ms", percentile(lat, 50), "ms")
	r.set("latency_p99_ms", percentile(lat, 99), "ms")
	r.set("ops_per_s", median(rates), "1/s")
	r.set("success_ratio", 1-ratio(float64(r.failed), float64(r.attempted)), "ratio")
	r.set("heap_mb", median(heaps), "MB")
}
