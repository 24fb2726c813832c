package metrics

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryRegisterAndNames(t *testing.T) {
	r := NewRegistry()
	var c Counter
	var g Gauge
	var h Histogram
	if err := r.RegisterCounter("b_total", "bees", &c); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterGauge("a_level", "ays", &g); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterHistogram("c_seconds", "cees", &h); err != nil {
		t.Fatal(err)
	}
	if got := r.Names(); len(got) != 3 || got[0] != "a_level" || got[1] != "b_total" || got[2] != "c_seconds" {
		t.Fatalf("Names() = %v, want sorted [a_level b_total c_seconds]", got)
	}
	if err := r.RegisterCounter("b_total", "again", &c); err == nil {
		t.Fatal("duplicate registration must error")
	}
	if err := r.RegisterCounter("", "anon", &c); err == nil {
		t.Fatal("empty name must error")
	}
	if r.Histogram("c_seconds") != &h {
		t.Fatal("Histogram lookup lost the pointer")
	}
	if r.Histogram("b_total") != nil {
		t.Fatal("Histogram lookup must reject non-histograms")
	}
}

func TestRegistryTextExposition(t *testing.T) {
	r := NewRegistry()
	var c Counter
	c.Add(42)
	var g Gauge
	g.Set(-7)
	var h Histogram
	h.Record(100 * time.Microsecond)
	h.Record(3 * time.Millisecond)
	r.RegisterCounter("xstd_queries_ok_total", "queries answered", &c)
	r.RegisterGauge("xstd_in_flight", "evaluating now", &g)
	r.RegisterHistogram("xstd_query_latency_seconds", "per-query latency", &h)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# HELP xstd_queries_ok_total queries answered",
		"# TYPE xstd_queries_ok_total counter",
		"xstd_queries_ok_total 42",
		"# TYPE xstd_in_flight gauge",
		"xstd_in_flight -7",
		"# TYPE xstd_query_latency_seconds histogram",
		`xstd_query_latency_seconds_bucket{le="+Inf"} 2`,
		"xstd_query_latency_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// Buckets must be cumulative: the 128µs bucket holds the 100µs
	// observation, the +Inf line equals the count.
	if !strings.Contains(text, `xstd_query_latency_seconds_bucket{le="0.000128"} 1`) {
		t.Errorf("expected cumulative 128µs bucket with 1 observation:\n%s", text)
	}
	// _sum is in seconds: 3.1ms total.
	if !strings.Contains(text, "xstd_query_latency_seconds_sum 0.0031") {
		t.Errorf("expected sum in seconds (0.0031):\n%s", text)
	}
}

// TestRegistryConcurrent registers, enumerates and renders from many
// goroutines at once; run under -race this pins the locking contract.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const writers, readers, perWriter = 4, 4, 50
	counters := make([][]Counter, writers)
	for w := 0; w < writers; w++ {
		counters[w] = make([]Counter, perWriter)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				name := fmt.Sprintf("w%d_c%d_total", w, i)
				if err := r.RegisterCounter(name, "concurrent", &counters[w][i]); err != nil {
					t.Errorf("register %s: %v", name, err)
					return
				}
				counters[w][i].Inc()
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_ = r.Names()
				_ = r.Snapshot()
				_ = r.WriteText(io.Discard)
			}
		}()
	}
	wg.Wait()
	if got := len(r.Names()); got != writers*perWriter {
		t.Fatalf("registered %d metrics, want %d", got, writers*perWriter)
	}
	snap := r.Snapshot()
	for _, m := range snap {
		if m.Kind != "counter" || m.Value != 1 {
			t.Fatalf("snapshot entry %+v, want counter value 1", m)
		}
	}
}

// TestQuantilesClampedToMax is the regression test for the upper-bound
// clamp: with every observation in one low bucket, the bucket's upper
// bound exceeds the true max, and P90/P99 — not just P50 — must be
// clamped down to it.
func TestQuantilesClampedToMax(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(70 * time.Microsecond) // bucket bound 128µs > max 70µs
	}
	s := h.Snapshot()
	if s.Max != 70*time.Microsecond {
		t.Fatalf("max = %v, want 70µs", s.Max)
	}
	for q, v := range map[string]time.Duration{"p50": s.P50, "p90": s.P90, "p99": s.P99} {
		if v > s.Max {
			t.Errorf("%s = %v exceeds observed max %v", q, v, s.Max)
		}
	}
}

// TestSubMicrosecondMean is the regression test for nanosecond-precision
// sums: operator spans of a few hundred ns must not average to zero.
func TestSubMicrosecondMean(t *testing.T) {
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Record(800 * time.Nanosecond)
	}
	s := h.Snapshot()
	if s.Mean != 800*time.Nanosecond {
		t.Fatalf("mean = %v, want 800ns (sub-µs durations must not truncate to 0)", s.Mean)
	}
	if s.Max != 800*time.Nanosecond {
		t.Fatalf("max = %v, want 800ns", s.Max)
	}
	// Quantiles live in bucket 0 (≤1µs upper bound) and clamp to max.
	if s.P50 > time.Microsecond || s.P99 > time.Microsecond {
		t.Fatalf("sub-µs quantiles p50=%v p99=%v, want ≤ 1µs", s.P50, s.P99)
	}
}
