package server

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"xst/internal/catalog"
	"xst/internal/core"
	"xst/internal/store"
	"xst/internal/table"
)

// E14 (§1's backend machine): one in-process xstd over a 64-row table,
// driven by 1, 8 and 64 concurrent client connections.

// loadReport is one client-side load run: the latencies of the answered
// queries, the count that failed and the first failure.
type loadReport struct {
	lats    []time.Duration
	elapsed time.Duration
	errs    int
	err     error
}

// qps is the answered queries per second.
func (r loadReport) qps() float64 { return float64(len(r.lats)) / r.elapsed.Seconds() }

// quantile returns the q-th answered latency (nearest rank).
func (r loadReport) quantile(q float64) time.Duration {
	if len(r.lats) == 0 {
		return 0
	}
	return r.lats[int(q*float64(len(r.lats)-1))]
}

// runLoad opens conns connections to addr, each evaluating stmt perConn
// times.
func runLoad(addr, stmt string, conns, perConn int) loadReport {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		rep loadReport
	)
	fail := func(n int, err error) {
		mu.Lock()
		defer mu.Unlock()
		rep.errs += n
		if rep.err == nil {
			rep.err = err
		}
	}
	start := time.Now()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				fail(perConn, err)
				return
			}
			defer c.Close()
			mine := make([]time.Duration, 0, perConn)
			for q := 0; q < perConn; q++ {
				t0 := time.Now()
				if _, err := c.Eval(stmt); err != nil {
					fail(1, err)
					continue
				}
				mine = append(mine, time.Since(t0))
			}
			mu.Lock()
			rep.lats = append(rep.lats, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	rep.elapsed = time.Since(start)
	sort.Slice(rep.lats, func(a, b int) bool { return rep.lats[a] < rep.lats[b] })
	return rep
}

// peopleDB is the 64-row table E14 serves.
func peopleDB(tb testing.TB) *catalog.Database {
	tb.Helper()
	db, err := catalog.Create(store.NewMemPager(), 64)
	if err != nil {
		tb.Fatal(err)
	}
	rows := make([]table.Row, 64)
	for i := range rows {
		rows[i] = table.Row{core.Int(int64(i)), core.Str(fmt.Sprintf("p%02d", i))}
	}
	loadTable(tb, db, table.Schema{Name: "people", Cols: []string{"id", "name"}}, rows)
	return db
}

// TestServerLoad is E14 at quick scale: 25 queries per connection at
// 1, 8 and 64 connections are all answered, and the server's own ledger
// counts exactly the queries the clients saw answered.
func TestServerLoad(t *testing.T) {
	srv, addr := startServer(t, Config{DB: peopleDB(t), MaxWorkers: 64})
	total := 0
	for _, conns := range []int{1, 8, 64} {
		rep := runLoad(addr, "card(cartesian(elems(people), {1,2,3}))", conns, 25)
		if rep.errs > 0 {
			t.Fatalf("%d conns: %d queries failed (first: %v)", conns, rep.errs, rep.err)
		}
		total += len(rep.lats)
		t.Logf("%2d conns: %d queries, %.0f q/s, p50 %v, p99 %v", conns, len(rep.lats), rep.qps(),
			rep.quantile(0.50).Round(time.Microsecond), rep.quantile(0.99).Round(time.Microsecond))
	}
	if snap := srv.MetricsSnapshot(); snap.QueriesOK != uint64(total) {
		t.Fatalf("server ledger counts %d queries ok, clients saw %d", snap.QueriesOK, total)
	}
}

// benchServerLoad measures end-to-end queries/sec (the qps metric) with
// a fixed client fan-in over the E14 table.
func benchServerLoad(b *testing.B, conns int, cfg Config) {
	cfg.DB = peopleDB(b)
	_, addr := startServer(b, cfg)
	b.ResetTimer()
	rep := runLoad(addr, "card(people + {0})", conns, (b.N+conns-1)/conns)
	b.StopTimer()
	if rep.err != nil {
		b.Fatalf("%d queries failed (first: %v)", rep.errs, rep.err)
	}
	b.ReportMetric(rep.qps(), "qps")
}

func BenchmarkServerThroughput1(b *testing.B)  { benchServerLoad(b, 1, Config{MaxWorkers: 64}) }
func BenchmarkServerThroughput8(b *testing.B)  { benchServerLoad(b, 8, Config{MaxWorkers: 64}) }
func BenchmarkServerThroughput64(b *testing.B) { benchServerLoad(b, 64, Config{MaxWorkers: 64}) }

// The tracing overhead benchmarks. With tracing off the server must run
// within noise of BenchmarkServerThroughput8 (the off path is one
// context lookup per statement plus nil checks); the sampled and
// always-on costs must stay modest enough to leave on in production.

func BenchmarkTracingOff(b *testing.B) { benchServerLoad(b, 8, Config{MaxWorkers: 64}) }

func BenchmarkTracingSampled100(b *testing.B) {
	benchServerLoad(b, 8, Config{MaxWorkers: 64, TraceSample: 100})
}

func BenchmarkTracingAlways(b *testing.B) {
	benchServerLoad(b, 8, Config{MaxWorkers: 64, TraceSample: 1})
}
