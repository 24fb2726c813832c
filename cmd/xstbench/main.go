// Command xstbench regenerates the reproduction's evaluation artifacts:
// every figure, worked example, law table and performance claim, as
// experiments E1–E18 (see DESIGN.md for the index and EXPERIMENTS.md for
// paper-vs-measured records). It doubles as the load generator for a
// running xstd server.
//
// Usage:
//
//	xstbench              # run everything at full scale
//	xstbench -quick       # shrunken workloads (seconds, for CI)
//	xstbench -exp E8      # one experiment
//	xstbench -seed 7      # reseed the randomized workloads
//
// Client (load-generation) mode:
//
//	xstbench -server localhost:7143 -conns 64 -queries 200 \
//	         -stmt 'card({1,2,3}+{4,5})'
//
// drives an xstd server with -conns concurrent connections issuing
// -queries statements each, then prints client-side throughput/latency
// and the server's own ledger, read as `from __sys.metrics`.
//
// Federation mode:
//
//	xstbench -sites 3 -queries 120
//
// boots an in-process federation of N xstd sites over a sharded
// synthetic workload, drives the coordinator with a query mix, and
// reports coordinator p50/p99 alongside each site's own latency and the
// xstd_fed_* shipping counters; add -http to serve the coordinator's
// /metrics exposition afterwards (for smoke jobs).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"xst/internal/bench"
	"xst/internal/server"
)

func main() {
	var (
		exp   = flag.String("exp", "", "run a single experiment (E1..E18)")
		quick = flag.Bool("quick", false, "shrink performance workloads")
		seed  = flag.Uint64("seed", 42, "workload seed")

		srvAddr = flag.String("server", "", "client mode: address of a running xstd server")
		conns   = flag.Int("conns", 8, "client mode: concurrent connections")
		queries = flag.Int("queries", 100, "client mode: queries per connection; fed mode: total queries")
		stmt    = flag.String("stmt", "card({1,2,3}+{4,5})", "client mode: statement to evaluate")

		sites   = flag.Int("sites", 0, "fed mode: boot an in-process federation of N sites and benchmark it")
		httpAdr = flag.String("http", "", "fed mode: serve the coordinator /metrics exposition here and linger")
	)
	flag.Parse()

	if *sites > 0 {
		os.Exit(fedMode(*sites, *seed, *queries, *httpAdr))
	}
	if *srvAddr != "" {
		os.Exit(clientMode(*srvAddr, *stmt, *conns, *queries))
	}

	cfg := bench.Config{Quick: *quick, Seed: *seed}
	var results []bench.Result
	if *exp != "" {
		r, ok := bench.ByID(*exp, cfg)
		if !ok {
			fmt.Fprintf(os.Stderr, "xstbench: unknown experiment %q (want E1..E18)\n", *exp)
			os.Exit(2)
		}
		results = []bench.Result{r}
	} else {
		results = bench.All(cfg)
	}

	failures := 0
	for _, r := range results {
		fmt.Println(r.Render())
		if !r.Pass {
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "xstbench: %d experiment(s) mismatched\n", failures)
		os.Exit(1)
	}
}

// clientMode generates load against a running xstd server.
func clientMode(addr, stmt string, conns, queries int) int {
	fmt.Printf("xstbench: driving %s with %d conns × %d queries of %q\n",
		addr, conns, queries, stmt)
	rep, err := bench.RunServerLoad(addr, stmt, conns, queries)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xstbench:", err)
		return 1
	}
	fmt.Printf("client:  %d queries in %v — %.0f q/s, p50 %v, p99 %v, %d errors\n",
		rep.Queries, rep.Elapsed.Round(time.Millisecond), rep.QPS,
		rep.P50.Round(time.Microsecond), rep.P99.Round(time.Microsecond), rep.Errors)

	c, err := server.Dial(addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xstbench:", err)
		return 1
	}
	defer c.Close()
	// The server's ledger is a query of its metrics view: one
	// <name,value> row per series, histograms counting observations.
	ledger := map[string]int64{}
	if _, err := c.Query("from __sys.metrics select name, value", func(rows []string) error {
		for _, r := range rows {
			var name string
			var v int64
			if _, err := fmt.Sscanf(r, "<%q,%d>", &name, &v); err != nil {
				return fmt.Errorf("__sys.metrics row %s: %w", r, err)
			}
			ledger[name] = v
		}
		return nil
	}); err != nil {
		fmt.Fprintln(os.Stderr, "xstbench:", err)
		return 1
	}
	fmt.Printf("server:  ok=%d err=%d timeout=%d rejected=%d conns=%d latency n=%d\n",
		ledger["xstd_queries_ok_total"], ledger["xstd_queries_err_total"],
		ledger["xstd_queries_timeout_total"], ledger["xstd_rejected_total"],
		ledger["xstd_conns_total"], ledger["xstd_query_latency_seconds"])
	fmt.Printf("server:  %d metric series via __sys.metrics\n", len(ledger))
	return 0
}
