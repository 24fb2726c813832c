package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Kind classifies a registered metric.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// entry is one registered metric. Exactly one of c/g/h/gf is set,
// according to Kind (gf is a computed gauge).
type entry struct {
	name string
	help string
	kind Kind
	c    *Counter
	g    *Gauge
	h    *Histogram
	gf   func() int64
}

// value reads the entry's scalar: counter count, gauge level (stored or
// computed), histogram observation count.
func (e *entry) value() int64 {
	switch {
	case e.c != nil:
		return int64(e.c.Value())
	case e.g != nil:
		return e.g.Value()
	case e.gf != nil:
		return e.gf()
	case e.h != nil:
		return int64(e.h.Count())
	}
	return 0
}

// Registry names and enumerates a process's metrics, replacing ad-hoc
// struct-field access with one authoritative, introspectable catalog:
// every Counter, Gauge and Histogram the server publishes is reachable
// by name, renderable as a Prometheus-style text exposition (the xstd
// HTTP listener), and snapshottable for programmatic consumers and the
// __sys.metrics view. Registration and
// enumeration are safe for concurrent use; reads of the registered
// metrics stay lock-free atomics as before — the registry holds
// pointers, it does not intercept updates.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*entry{}}
}

// register adds e, rejecting duplicate or empty names.
func (r *Registry) register(e *entry) error {
	if e.name == "" {
		return fmt.Errorf("metrics: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[e.name]; dup {
		return fmt.Errorf("metrics: duplicate metric %q", e.name)
	}
	r.byName[e.name] = e
	return nil
}

// RegisterCounter adds an existing counter under name.
func (r *Registry) RegisterCounter(name, help string, c *Counter) error {
	return r.register(&entry{name: name, help: help, kind: KindCounter, c: c})
}

// RegisterGauge adds an existing gauge under name.
func (r *Registry) RegisterGauge(name, help string, g *Gauge) error {
	return r.register(&entry{name: name, help: help, kind: KindGauge, g: g})
}

// RegisterGaugeFunc adds a computed gauge: fn is evaluated at every
// snapshot or exposition, so values derived from live state (goroutine
// count, oldest-pinned-snapshot age, WAL bytes since checkpoint) are
// current at scrape time with no update loop. fn must be safe for
// concurrent use and should not block.
func (r *Registry) RegisterGaugeFunc(name, help string, fn func() int64) error {
	if fn == nil {
		return fmt.Errorf("metrics: nil gauge func for %q", name)
	}
	return r.register(&entry{name: name, help: help, kind: KindGauge, gf: fn})
}

// RegisterHistogram adds an existing histogram under name. The
// exposition renders its buckets, sum and count in seconds.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) error {
	return r.register(&entry{name: name, help: help, kind: KindHistogram, h: h})
}

// Names returns the registered metric names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// MetricSnapshot is one metric's point-in-time value: Value for
// counters (monotonic count) and gauges (level), Hist for histograms.
type MetricSnapshot struct {
	Name  string        `json:"name"`
	Kind  string        `json:"kind"`
	Help  string        `json:"help,omitempty"`
	Value int64         `json:"value"`
	Hist  *HistSnapshot `json:"hist,omitempty"`
}

// Snapshot captures every registered metric, sorted by name.
func (r *Registry) Snapshot() []MetricSnapshot {
	entries := r.sorted()
	out := make([]MetricSnapshot, 0, len(entries))
	for _, e := range entries {
		m := MetricSnapshot{Name: e.name, Kind: e.kind.String(), Help: e.help, Value: e.value()}
		if e.kind == KindHistogram {
			s := e.h.Snapshot()
			m.Value = int64(s.Count)
			m.Hist = &s
		}
		out = append(out, m)
	}
	return out
}

// sorted returns the entries ordered by name under the read lock.
func (r *Registry) sorted() []*entry {
	r.mu.RLock()
	entries := make([]*entry, 0, len(r.byName))
	for _, e := range r.byName {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	return entries
}

// WriteText renders the Prometheus text exposition format (version
// 0.0.4): # HELP and # TYPE lines per metric, histogram buckets as
// cumulative counts with `le` labels in seconds.
func (r *Registry) WriteText(w io.Writer) error {
	for _, e := range r.sorted() {
		if e.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.name, sanitizeHelp(e.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.name, e.kind); err != nil {
			return err
		}
		var err error
		switch e.kind {
		case KindCounter, KindGauge:
			_, err = fmt.Fprintf(w, "%s %d\n", e.name, e.value())
		case KindHistogram:
			err = writeHistText(w, e.name, e.h)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeHistText renders one histogram's cumulative buckets, sum and
// count, all in seconds.
func writeHistText(w io.Writer, name string, h *Histogram) error {
	counts, bounds := h.Buckets()
	var cum uint64
	for i := range counts {
		cum += counts[i]
		le := bounds[i].Seconds()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatLE(le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum().Seconds()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	return err
}

// formatLE renders a bucket bound compactly (1e-06, 0.001024, 8.192).
func formatLE(secs float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", secs), "0"), ".")
}

// sanitizeHelp keeps HELP lines single-line.
func sanitizeHelp(s string) string {
	return strings.ReplaceAll(strings.ReplaceAll(s, "\\", `\\`), "\n", `\n`)
}

// Histogram returns the registered histogram by name, or nil — used by
// consumers (xstbench) that want quantiles for one specific series out
// of a registry snapshot.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e, ok := r.byName[name]; ok && e.kind == KindHistogram {
		return e.h
	}
	return nil
}
