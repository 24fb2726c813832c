// Package metrics provides the lock-cheap instrumentation primitives
// the query server reports through __sys.metrics and /metrics: atomic
// counters and gauges, and a fixed-bucket log-spaced latency histogram
// with quantile estimation. The package has no dependencies beyond the
// standard library so every layer (server, store, bench) can publish
// into it without import cycles.
package metrics

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count, safe for
// concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous level (e.g. active connections), safe for
// concurrent use.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add shifts the level by n (negative to release), for multi-unit
// levels like admission tokens.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value reads the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of log2-spaced duration buckets. Bucket i
// holds observations in (2^(i-1), 2^i] µs, so the range spans 1µs up to
// ~2.3 hours — wide enough for any query latency the server will see.
const histBuckets = 33

// Histogram is a log2-bucketed latency histogram. All methods are safe
// for concurrent use; Record is a single atomic add on the bucket plus
// two atomic adds for the running sum and count. Buckets are µs-spaced
// but the sum and max run in nanoseconds, so means and maxima of
// microsecond-scale operator spans aren't truncated to zero.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	max     atomic.Uint64 // nanoseconds
}

// bucketFor maps a duration to its bucket index.
func bucketFor(d time.Duration) int {
	us := d.Microseconds()
	if us <= 1 {
		return 0
	}
	i := 0
	for v := uint64(us - 1); v > 0; v >>= 1 {
		i++
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	ns := uint64(d.Nanoseconds())
	h.buckets[bucketFor(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// HistSnapshot is a point-in-time summary of a Histogram. Quantiles are
// upper-bound estimates (the top of the bucket holding the quantile),
// conservative by at most 2×.
type HistSnapshot struct {
	Count uint64        `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// Snapshot summarizes the histogram. Concurrent Records during the
// snapshot may skew individual buckets by a few observations; the
// result is a monitoring view, not an exact census.
func (h *Histogram) Snapshot() HistSnapshot {
	var counts [histBuckets]uint64
	var total uint64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s := HistSnapshot{
		Count: total,
		Max:   time.Duration(h.max.Load()),
	}
	if total == 0 {
		return s
	}
	s.Mean = time.Duration(h.sum.Load() / total)
	quantile := func(q float64) time.Duration {
		rank := uint64(q * float64(total))
		if rank == 0 {
			rank = 1
		}
		var seen uint64
		for i, c := range counts {
			seen += c
			if seen >= rank {
				return (time.Duration(1) << uint(i)) * time.Microsecond
			}
		}
		return s.Max
	}
	// Every quantile is a bucket upper bound and so can exceed the true
	// observed maximum; clamp them all — not just P50 — so no reported
	// quantile ever sits above Max.
	clamp := func(d time.Duration) time.Duration {
		if d > s.Max && s.Max > 0 {
			return s.Max
		}
		return d
	}
	s.P50 = clamp(quantile(0.50))
	s.P90 = clamp(quantile(0.90))
	s.P99 = clamp(quantile(0.99))
	return s
}

// Buckets returns a point-in-time copy of the per-bucket counts along
// with each bucket's inclusive upper bound — the raw material for a
// cumulative (Prometheus-style) exposition. The last bucket is
// unbounded; its reported bound is the histogram's top edge.
func (h *Histogram) Buckets() (counts [histBuckets]uint64, bounds [histBuckets]time.Duration) {
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		bounds[i] = (time.Duration(1) << uint(i)) * time.Microsecond
	}
	return counts, bounds
}

// Sum returns the running total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// String renders the snapshot compactly for logs and admin output.
func (s HistSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%v p50=%v p90=%v p99=%v max=%v",
		s.Count, s.Mean, s.P50, s.P90, s.P99, s.Max)
	return b.String()
}
