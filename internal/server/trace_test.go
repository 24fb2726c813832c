package server

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"xst/internal/plan"
	"xst/internal/trace"
	"xst/internal/xlang"
)

// opSubtree picks the operator span out of a traced query's root
// snapshot: the child that is not one of the fixed query phases.
func opSubtree(t *testing.T, snap trace.SpanSnapshot) trace.SpanSnapshot {
	t.Helper()
	for _, c := range snap.Children {
		switch c.Name {
		case "compile", "admission", "exec":
			continue
		}
		return c
	}
	t.Fatalf("no operator span among children of %q: %s", snap.Name, snap.JSON())
	return trace.SpanSnapshot{}
}

// stripTimes drops the trailing time= field from EXPLAIN ANALYZE-style
// lines so two runs of the same query compare on counters alone.
func stripTimes(s string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		if i := strings.LastIndex(line, " time="); i >= 0 {
			line = line[:i]
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestTraceMatchesExplainAnalyze is the acceptance check: the operator
// spans of a traced query carry exactly the per-operator rows, batches
// and max-batch counters EXPLAIN ANALYZE reports for the same plan.
func TestTraceMatchesExplainAnalyze(t *testing.T) {
	db := streamDB(t, 500)
	_, addr := startServer(t, Config{DB: db})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const stmt = "from nums where mod = 3 select n"
	snap, err := c.Trace(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Name != "query" || snap.Note != stmt {
		t.Fatalf("trace root = %q note=%q, want query/%q", snap.Name, snap.Note, stmt)
	}
	for _, phase := range []string{"compile", "admission", "exec"} {
		if snap.Find(phase) == nil {
			t.Errorf("trace missing %q phase span:\n%s", phase, snap.Render())
		}
	}

	// Render the traced operator subtree in EXPLAIN ANALYZE's layout and
	// run EXPLAIN ANALYZE on the same statement against the same tables:
	// modulo timings, the two must be identical.
	got := stripTimes(plan.RenderOpSpans(opSubtree(t, snap)))
	env := xlang.NewEnv()
	if err := db.BindAll(env); err != nil {
		t.Fatal(err)
	}
	q, err := xlang.CompileQuery(env, stmt)
	if err != nil {
		t.Fatal(err)
	}
	ea, err := plan.ExplainAnalyze(context.Background(), q.Node)
	if err != nil {
		t.Fatal(err)
	}
	if want := stripTimes(ea); got != want {
		t.Fatalf("traced operator spans diverge from EXPLAIN ANALYZE:\ntrace:\n%s\nexplain analyze:\n%s", got, want)
	}
}

// TestTraceParallelSpanTree assembles a span tree under a fanned-out
// plan: every Gather worker contributes a span, and the workers' row
// counts sum to the result. Run with -race this also pins the
// concurrent child-attach contract.
func TestTraceParallelSpanTree(t *testing.T) {
	forceParallelPlans(t, 64, 4)
	_, addr := startServer(t, Config{DB: streamDB(t, 2000), MaxWorkers: 8})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	snap, err := c.Trace("from nums where mod <> 7 select n")
	if err != nil {
		t.Fatal(err)
	}
	exec := snap.Find("exec")
	if exec == nil {
		t.Fatalf("no exec span:\n%s", snap.Render())
	}
	var workers, workerRows int64
	exec.Walk(func(sp trace.SpanSnapshot, _ int) {
		if strings.HasPrefix(sp.Name, "worker[") {
			workers++
			workerRows += sp.Rows
		}
	})
	if workers != 4 {
		t.Fatalf("trace has %d worker spans, want 4:\n%s", workers, snap.Render())
	}
	if workerRows != 2000 {
		t.Fatalf("worker spans carry %d rows, want 2000", workerRows)
	}
	if next := snap.Find("next"); next == nil || next.Rows != 2000 {
		t.Fatalf("next span rows = %+v, want 2000", next)
	}
	// The synthetic operator spans mirror the parallel tree too.
	if op := opSubtree(t, snap); op.Rows != 2000 {
		t.Fatalf("operator root span %q rows = %d, want 2000", op.Name, op.Rows)
	}
}

// TestSlowQueryLog: with a threshold every query beats, the span tree
// lands in the slow ring (read back through `.slow`) and one structured
// log line is emitted.
func TestSlowQueryLog(t *testing.T) {
	var mu sync.Mutex
	var logs []string
	cfg := Config{
		DB:        streamDB(t, 200),
		SlowQuery: time.Nanosecond,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	}
	srv, addr := startServer(t, cfg)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const stmt = "from nums where mod = 0 select n"
	if _, err := c.Query(stmt, nil); err != nil {
		t.Fatal(err)
	}
	snap := srv.MetricsSnapshot()
	if snap.SlowQueries != 1 || snap.TracedQueries != 1 {
		t.Fatalf("slow=%d traced=%d, want 1/1", snap.SlowQueries, snap.TracedQueries)
	}
	slow := queryRows(t, c, ".slow")
	if len(slow) != 1 {
		t.Fatalf("slow log holds %d entries, want 1", len(slow))
	}
	// stmt dur_us rows dop epoch: the rows come from the exec span.
	if f := fieldsOf(slow[0]); len(f) != 5 || f[0] != stmt || f[2] != "29" || f[3] == "0" {
		t.Fatalf("slow entry = %s, want stmt %q with its 29 rows and a dop", slow[0], stmt)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, l := range logs {
		if strings.Contains(l, "slow query") && strings.Contains(l, `"name":"query"`) {
			return
		}
	}
	t.Fatalf("no structured slow-query log line in %q", logs)
}

// TestSlowLogRingEviction: the ring keeps only the newest SlowLogSize
// entries.
func TestSlowLogRingEviction(t *testing.T) {
	_, addr := startServer(t, Config{DB: streamDB(t, 50), SlowQuery: time.Nanosecond, SlowLogSize: 2})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 4; i++ {
		if _, err := c.Eval(fmt.Sprintf("card({%d})", i)); err != nil {
			t.Fatal(err)
		}
	}
	slow := queryRows(t, c, ".slow")
	if len(slow) != 2 {
		t.Fatalf("ring holds %d entries, want 2", len(slow))
	}
	if fieldsOf(slow[0])[0] != "card({2})" || fieldsOf(slow[1])[0] != "card({3})" {
		t.Fatalf("ring kept %q, want the two newest", slow)
	}
}

// TestTraceSampling: with 1-in-1 sampling every statement is traced and
// the bare `.trace` command returns the most recent tree.
func TestTraceSampling(t *testing.T) {
	srv, addr := startServer(t, Config{DB: streamDB(t, 50), TraceSample: 1})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Eval("card({1,2,3})"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Eval(".trace")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, `"note":"card({1,2,3})"`) {
		t.Fatalf(".trace returned %s, want the sampled card query", got)
	}
	if snap := srv.MetricsSnapshot(); snap.TracedQueries != 1 {
		t.Fatalf("traced_queries = %d, want 1", snap.TracedQueries)
	}
}

// TestTraceEmptyRing: with tracing fully off, bare `.trace` explains
// how to turn it on, and untraced statements pay no tracing at all.
func TestTraceEmptyRing(t *testing.T) {
	srv, addr := startServer(t, Config{DB: streamDB(t, 50)})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Eval("card({1})"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Eval(".trace"); err == nil || !strings.Contains(err.Error(), "no traces recorded") {
		t.Fatalf(".trace on empty ring: err = %v, want 'no traces recorded'", err)
	}
	if snap := srv.MetricsSnapshot(); snap.TracedQueries != 0 {
		t.Fatalf("traced_queries = %d with tracing off, want 0", snap.TracedQueries)
	}
}

// TestMetricsExposition: the registry's exposition (what HTTP /metrics
// serves) is well-formed Prometheus text covering the whole registry.
func TestMetricsExposition(t *testing.T) {
	srv, addr := startServer(t, Config{DB: streamDB(t, 200)})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Query("from nums where mod = 1 select n", nil); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := srv.Registry().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE xstd_queries_ok_total counter",
		"xstd_queries_ok_total 1",
		"# TYPE xstd_in_flight gauge",
		"# TYPE xstd_query_latency_seconds histogram",
		`xstd_query_latency_seconds_bucket{le="+Inf"} 1`,
		"xstd_query_latency_seconds_count 1",
		"xstd_rows_streamed_total 29",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}
