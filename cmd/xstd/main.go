// Command xstd is the set-processing backend machine of the
// reproduction: a daemon serving the xlang expression language over TCP
// to many concurrent clients, each in an isolated session over one
// shared database. See internal/server for the wire protocol and
// README.md for usage.
//
//	xstd                          # pure calculator server on :7143
//	xstd -db data.pages           # serve a stored database's tables
//	xstd -addr :9000 -workers 128 -timeout 5s
//	xstd -http :7144 -slow-query 250ms -trace-sample 100
//	xstd -fed host1:7143,host2:7143  # federation coordinator over sites
//
// -http starts a sidecar HTTP listener serving the Prometheus-style
// /metrics exposition and the standard net/http/pprof profiling
// endpoints under /debug/pprof/. -slow-query arms the slow-query log
// (span trees of over-threshold queries, logged and listed by
// `from __sys.slow`, alias `.slow`); -trace-sample N traces 1-in-N
// statements for the `.trace` admin command. The admin read commands
// (.stats .metrics .slow .tables .schema) are aliases for `__sys` view
// queries; see internal/server.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes,
// in-flight queries drain (up to -grace), then the database is synced
// and closed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"xst/internal/catalog"
	"xst/internal/fed"
	"xst/internal/server"
	"xst/internal/store"
	"xst/internal/wal"
	"xst/internal/xlang"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr    = flag.String("addr", ":7143", "listen address")
		dbPath  = flag.String("db", "", "database file to serve (tables bound read-only into every session)")
		walPath = flag.String("wal", "", "write-ahead log for -db: replay committed transactions at open, fsync every commit (empty = not durable)")
		frames  = flag.Int("frames", 256, "buffer-pool frames for the database")
		workers = flag.Int("workers", 64, "max concurrently evaluating queries")
		timeout = flag.Duration("timeout", 10*time.Second, "default per-query deadline")
		grace   = flag.Duration("grace", 15*time.Second, "shutdown drain budget")
		httpAdr = flag.String("http", "", "HTTP listen address for /metrics and /debug/pprof/ (empty = off)")
		slowQ   = flag.Duration("slow-query", 0, "trace every statement and log span trees of ones at least this slow (0 = off)")
		sample  = flag.Int("trace-sample", 0, "trace 1-in-N statements for the .trace admin command (0 = off)")
		fedStr  = flag.String("fed", "", "comma-separated site addresses: serve as federation coordinator over remote xstd sites")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "", log.LstdFlags)

	var db *catalog.Database
	if *dbPath != "" {
		pager, err := store.OpenFilePager(*dbPath)
		if err != nil {
			logger.Printf("xstd: %v", err)
			return 1
		}
		if *walPath != "" {
			walLog, err := wal.OpenFileLog(*walPath)
			if err != nil {
				pager.Close()
				logger.Printf("xstd: %v", err)
				return 1
			}
			defer walLog.Close()
			if pager.NumPages() == 0 {
				db, err = catalog.CreateDurable(pager, walLog, *frames)
			} else {
				var redone int
				db, redone, err = catalog.OpenDurable(pager, walLog, *frames)
				if err == nil && redone > 0 {
					logger.Printf("xstd: recovery replayed %d committed transactions from %s", redone, *walPath)
				}
			}
			if err != nil {
				pager.Close()
				logger.Printf("xstd: %v", err)
				return 1
			}
		} else {
			db, err = catalog.Open(pager, *frames)
			if err != nil {
				pager.Close()
				logger.Printf("xstd: %v", err)
				return 1
			}
		}
		defer func() {
			if err := db.Close(); err != nil {
				logger.Printf("xstd: closing database: %v", err)
			}
		}()
		logger.Printf("xstd: serving tables %v from %s", db.Names(), *dbPath)
	}

	// Federation mode: connect the coordinator to the remote sites and
	// route query compilation through it — the server's own sessions,
	// admission control and streaming all apply unchanged.
	var coord *fed.Coordinator
	if *fedStr != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		c, err := fed.Connect(ctx, fed.Config{
			Sites: strings.Split(*fedStr, ","),
			Logf:  logger.Printf,
		})
		cancel()
		if err != nil {
			logger.Printf("xstd: %v", err)
			return 1
		}
		coord = c
		defer coord.Close()
		var names []string
		for _, m := range coord.Tables() {
			names = append(names, m.Name)
		}
		logger.Printf("xstd: coordinating tables %v over %d sites", names, coord.Sites())
	}

	cfg := server.Config{
		Addr:           *addr,
		DB:             db,
		MaxWorkers:     *workers,
		DefaultTimeout: *timeout,
		SlowQuery:      *slowQ,
		TraceSample:    *sample,
		Logf:           logger.Printf,
	}
	if coord != nil {
		cfg.Compile = func(env *xlang.Env, stmt string) (server.Query, error) {
			q, err := coord.Compile(stmt)
			if err != nil {
				return nil, err
			}
			return q, nil
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		logger.Printf("xstd: %v", err)
		return 1
	}
	if coord != nil {
		if err := coord.RegisterMetrics(srv.Registry()); err != nil {
			logger.Printf("xstd: %v", err)
			return 1
		}
	}

	// The observability sidecar: Prometheus text exposition plus the
	// stock pprof handlers, on a separate listener so profiling traffic
	// never competes with the query protocol port.
	var httpSrv *http.Server
	if *httpAdr != "" {
		l, err := net.Listen("tcp", *httpAdr)
		if err != nil {
			logger.Printf("xstd: http listener: %v", err)
			return 1
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			srv.Registry().WriteText(w)
		})
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		httpSrv = &http.Server{Handler: mux}
		logger.Printf("xstd: metrics and pprof on http://%s", l.Addr())
		go func() {
			if err := httpSrv.Serve(l); err != nil && err != http.ErrServerClosed {
				logger.Printf("xstd: http: %v", err)
			}
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case sig := <-sigc:
		logger.Printf("xstd: %v — draining (grace %v)", sig, *grace)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Printf("xstd: forced shutdown: %v", err)
		}
		<-errc // wait for Serve to return
	case err := <-errc:
		if err != nil && err != server.ErrServerClosed {
			logger.Printf("xstd: %v", err)
			return 1
		}
	}
	if httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
	}

	snap := srv.MetricsSnapshot()
	fmt.Fprintf(os.Stderr, "xstd: served %d queries (%d errors, %d timeouts, %d rejected), latency %s\n",
		snap.QueriesOK+snap.QueriesErr+snap.QueriesTimeout,
		snap.QueriesErr, snap.QueriesTimeout, snap.Rejected, snap.Latency)
	return 0
}
