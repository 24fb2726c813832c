package bench

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"xst/internal/catalog"
	"xst/internal/core"
	"xst/internal/server"
	"xst/internal/store"
	"xst/internal/table"
)

// LoadReport summarizes one client-side load run against a server.
type LoadReport struct {
	Conns   int
	Queries int
	Errors  int
	Elapsed time.Duration
	QPS     float64
	P50     time.Duration
	P99     time.Duration
}

// RunServerLoad opens conns connections to addr and has each evaluate
// stmt perConn times, reporting aggregate throughput and client-side
// latency quantiles.
func RunServerLoad(addr, stmt string, conns, perConn int) (LoadReport, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		lats     []time.Duration
		errs     int
		firstErr error
	)
	start := time.Now()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := make([]time.Duration, 0, perConn)
			c, err := server.Dial(addr)
			if err != nil {
				mu.Lock()
				errs += perConn
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			defer c.Close()
			bad := 0
			for q := 0; q < perConn; q++ {
				t0 := time.Now()
				if _, err := c.Eval(stmt); err != nil {
					bad++
					if firstErr == nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
					}
					continue
				}
				mine = append(mine, time.Since(t0))
			}
			mu.Lock()
			lats = append(lats, mine...)
			errs += bad
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := LoadReport{Conns: conns, Queries: conns * perConn, Errors: errs, Elapsed: elapsed}
	if len(lats) > 0 {
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		rep.P50 = lats[len(lats)/2]
		rep.P99 = lats[len(lats)*99/100]
		rep.QPS = float64(len(lats)) / elapsed.Seconds()
	}
	if firstErr != nil && errs > 0 {
		return rep, fmt.Errorf("%d/%d queries failed (first: %w)", errs, rep.Queries, firstErr)
	}
	return rep, nil
}

// E14ServerThroughput measures the query server end to end: an
// in-process xstd over an in-memory database, driven by 1, 8 and 64
// concurrent client connections. The claim under test is the thesis'
// serving story — the set-processing backend machine sustains many
// concurrent front ends — checked here as: every query answered, the
// server's own accounting agrees with the clients', and concurrency
// does not collapse throughput.
func E14ServerThroughput(cfg Config) Result {
	const id = "E14"
	perConn := 200
	if cfg.Quick {
		perConn = 25
	}

	db, err := makeServerDB()
	if err != nil {
		return errResult(id, err)
	}
	srv, err := server.New(server.Config{DB: db, MaxWorkers: 64})
	if err != nil {
		return errResult(id, err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return errResult(id, err)
	}
	serveDone := make(chan struct{})
	go func() { srv.Serve(lis); close(serveDone) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.shutdownTimeout())
		defer cancel()
		srv.Shutdown(ctx)
		<-serveDone
	}()
	addr := lis.Addr().String()

	// The workload: a bounded cartesian product over a stored table's
	// element set — enough algebra to be a real query, small enough to
	// measure server overhead rather than one operator.
	stmt := "card(cartesian(elems(people), {1,2,3}))"

	lines := []string{fmt.Sprintf("%-6s %8s %10s %10s %10s", "conns", "queries", "qps", "p50", "p99")}
	pass := true
	total := 0
	for _, conns := range []int{1, 8, 64} {
		rep, err := RunServerLoad(addr, stmt, conns, perConn)
		if err != nil {
			return errResult(id, err)
		}
		total += rep.Queries
		if rep.Errors > 0 {
			pass = false
		}
		lines = append(lines, fmt.Sprintf("%-6d %8d %10.0f %10v %10v",
			conns, rep.Queries, rep.QPS, rep.P50.Round(time.Microsecond), rep.P99.Round(time.Microsecond)))
	}

	// The server's own ledger must agree with the clients'.
	snap := srv.MetricsSnapshot()
	if snap.QueriesOK != uint64(total) {
		pass = false
	}
	lines = append(lines, fmt.Sprintf("server ledger: ok=%d err=%d timeout=%d rejected=%d conns=%d latency[%s]",
		snap.QueriesOK, snap.QueriesErr, snap.QueriesTimeout, snap.Rejected, snap.ConnsTotal, snap.Latency))

	return Result{
		ID:    id,
		Title: "server throughput: concurrent xlang sessions over TCP (§1's backend machine)",
		Lines: lines,
		Pass:  pass,
	}
}

// makeServerDB builds the small in-memory database E14 serves.
func makeServerDB() (*catalog.Database, error) {
	db, err := catalog.Create(store.NewMemPager(), 64)
	if err != nil {
		return nil, err
	}
	t, err := db.CreateTable(table.Schema{Name: "people", Cols: []string{"id", "name"}})
	if err != nil {
		return nil, err
	}
	for i := 0; i < 64; i++ {
		if _, err := t.Insert(table.Row{core.Int(int64(i)), core.Str(fmt.Sprintf("p%02d", i))}); err != nil {
			return nil, err
		}
	}
	return db, db.Sync()
}
