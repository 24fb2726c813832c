package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// def is one metric as BENCHMARK.json declares it. The names are fixed:
// later issues cite them.
type def struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"` // nil for a layer metric
}

// catalogue is what the program reads from BENCHMARK.json: the one place
// that names the workloads and the metrics with their units and bounds.
type catalogue struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []def `json:"end_to_end"`
	PerLayer []def `json:"per_layer"`
}

func readCatalogue(path string) (*catalogue, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c catalogue
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

func (c *catalogue) all() []def {
	return append(append([]def(nil), c.EndToEnd...), c.PerLayer...)
}

// why is the declared reason for a workload; ok is false when the
// catalogue does not list it.
func (c *catalogue) why(workload string) (why string, ok bool) {
	for _, w := range c.Workloads {
		if w.Name == workload {
			return w.Why, true
		}
	}
	return "", false
}

// undeclared names a metric that was measured but is not in the
// catalogue, so that a renamed metric cannot drop out of the reports
// unnoticed; "" when there is none.
func (c *catalogue) undeclared(measured []vals) string {
	declared := map[string]bool{}
	for _, d := range c.all() {
		declared[d.Name] = true
	}
	for _, m := range measured {
		for name := range m {
			if !declared[name] {
				return name
			}
		}
	}
	return ""
}

// untracedTiming are the client's layer metrics that a traced run takes
// from its untraced segments, so that they are measured with tracing off.
var untracedTiming = map[string]bool{
	"client.ops_per_s": true, "client.p50_ms": true, "client.p95_ms": true, "client.p99_ms": true,
	"client.cpu_ms_per_op": true, "client.read_p50_ms": true, "client.write_p50_ms": true,
}

// metric is one reported value: the median over the run's segments or
// replayed calls (for a …_per_op metric the count over all segments, see
// aggregate), the quartiles of the segments' values, and how many samples
// stand behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// quartiles returns the median and the first and third quartile as
// Python's statistics.median and statistics.quantiles(values, n=4) give
// them (the exclusive method), which is what the driver applies to runs.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	med = d[n/2]
	if n%2 == 0 {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	return at(1), med, at(3)
}

// percentile is the nearest-rank percentile of a sorted sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(int(math.Ceil(p/100*float64(len(sorted))))-1, 0)]
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// val is one segment's (or one measurement's) value of a metric and the
// number of samples it was computed from.
type val struct {
	v float64
	n int
}

type vals map[string]val

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// opsPerS is the segment's rate of verified-correct statements.
func (seg *segment) opsPerS() float64 {
	return float64(seg.attempted-seg.failed) / seg.elapsed.Seconds()
}

// metrics turns one segment into per-segment metric values: the
// end-to-end ones, and the layer metrics that are counter differences.
func (seg *segment) metrics() vals {
	out := vals{}
	ok := seg.attempted - seg.failed
	ops := float64(ok)
	var all, reads, writes, ttfb, drain []float64
	for _, s := range seg.samples {
		all = append(all, ms(s.lat))
		if s.write {
			writes = append(writes, ms(s.lat))
		} else {
			reads = append(reads, ms(s.lat))
		}
	}
	for _, sp := range seg.spans {
		switch sp.Name {
		case "ttfb":
			ttfb = append(ttfb, float64(sp.End-sp.Start)/1e3)
		case "drain":
			drain = append(drain, float64(sp.End-sp.Start)/1e3)
		}
	}
	for _, vs := range [][]float64{all, reads, writes, ttfb, drain} {
		sort.Float64s(vs)
	}
	n := len(all)
	b, a := seg.before, seg.after
	bytesIn, bytesOut := float64(a.srv.BytesOut-b.srv.BytesOut), float64(a.srv.BytesIn-b.srv.BytesIn)
	out["alloc_kb_per_op"] = val{ratio(float64(a.alloc-b.alloc)/1024, ops), ok}
	out["allocs_per_op"] = val{ratio(float64(a.mallocs-b.mallocs), ops), ok}

	out["client.ops_per_s"] = val{seg.opsPerS(), ok}
	out["client.p50_ms"] = val{percentile(all, 50), n}
	out["client.p95_ms"] = val{percentile(all, 95), n}
	out["client.cpu_ms_per_op"] = val{ratio(ms(a.cpu-b.cpu), ops), ok}
	if seg.traced {
		out["client.ttfb_us"] = val{percentile(ttfb, 50), len(ttfb)}
		out["client.drain_us"] = val{percentile(drain, 50), len(drain)}
	}
	if n >= 1000 {
		out["client.p99_ms"] = val{percentile(all, 99), n}
	}
	// The server's bytes out are the client's bytes in.
	out["client.bytes_in_per_op"] = val{ratio(bytesIn, ops), ok}
	out["client.bytes_out_per_op"] = val{ratio(bytesOut, ops), ok}
	out["client.read_p50_ms"] = val{percentile(reads, 50), len(reads)}
	out["client.write_p50_ms"] = val{percentile(writes, 50), len(writes)}
	out["client.fail_share"] = val{ratio(float64(seg.failed), float64(seg.attempted)), seg.attempted}
	out["server.rejected"] = val{float64(a.srv.Rejected - b.srv.Rejected), ok}
	out["server.parallel_queries"] = val{float64(a.srv.ParallelQueries - b.srv.ParallelQueries), ok}

	hits := float64(a.srv.Pool.Hits - b.srv.Pool.Hits)
	misses := float64(a.srv.Pool.Misses - b.srv.Pool.Misses)
	out["store.hit_share"] = val{ratio(hits, hits+misses), int(hits + misses)}
	out["store.misses_per_op"] = val{ratio(misses, ops), ok}
	out["store.evictions_per_op"] = val{ratio(float64(a.srv.Pool.Evictions-b.srv.Pool.Evictions), ops), ok}
	out["store.writes_per_op"] = val{ratio(float64(a.srv.Pool.Writes-b.srv.Pool.Writes), ops), ok}
	out["store.superseded_pages_max"] = val{float64(max(a.superseded, b.superseded)), ok}
	out["store.reclaimed_images"] = val{float64(a.reclaimed - b.reclaimed), ok}

	commits := float64(a.commits - b.commits)
	fsyncs := a.fsyncs - b.fsyncs
	ckpts := a.checkpoints - b.checkpoints
	out["wal.fsyncs_per_commit"] = val{ratio(float64(fsyncs), commits), int(commits)}
	out["wal.fsync_ms"] = val{ratio(ms(a.fsyncTime-b.fsyncTime), float64(fsyncs)), int(fsyncs)}
	out["wal.bytes_per_commit"] = val{ratio(float64(a.walBytes-b.walBytes), commits), int(commits)}
	out["wal.appends_per_commit"] = val{ratio(float64(a.walAppends-b.walAppends), commits), int(commits)}
	out["wal.checkpoints"] = val{float64(ckpts), int(ckpts)}
	out["wal.checkpoint_ms"] = val{ratio(ms(a.checkpointTime-b.checkpointTime), float64(ckpts)), int(ckpts)}
	out["wal.disk_bytes_per_user_byte"] = val{ratio(float64(a.diskBytes-b.diskBytes), float64(seg.userBytes)), int(commits)}
	out["wal.bytes_per_user_byte"] = val{ratio(float64(a.walBytes-b.walBytes), float64(seg.userBytes)), int(commits)}
	out["catalog.commits"] = val{commits, int(commits)}
	out["catalog.aborts"] = val{float64(a.aborts - b.aborts), int(a.begins - b.begins)}
	return out
}

// aggregate reports, for each metric of defs, the median over the
// per-segment values with its quartiles. A …_per_op metric, a counter
// difference divided by statements, is taken over all segments together
// (their mean weighted by statements): the segments of mixed_rw are not
// alike, its events table grows, and a median would be the count of the
// middle segment alone, a fifth of the data. A metric no segment
// produced does not apply to the workload and is left out.
func aggregate(defs []def, segs []vals) map[string]metric {
	out := map[string]metric{}
	for _, d := range defs {
		var vs []float64
		n, weighted := 0, 0.0
		for _, s := range segs {
			if v, ok := s[d.Name]; ok {
				vs = append(vs, v.v)
				n += v.n
				weighted += v.v * float64(v.n)
			}
		}
		if len(vs) == 0 {
			continue
		}
		q1, value, q3 := quartiles(vs)
		if strings.HasSuffix(d.Name, "_per_op") && n > 0 {
			value = weighted / float64(n)
		}
		out[d.Name] = metric{Value: value, Unit: d.Unit, Q1: q1, Q3: q3, N: n}
	}
	return out
}
