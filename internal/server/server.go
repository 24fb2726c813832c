// Package server is the network face of the reproduction: Childs frames
// XST as the model for a set-processing *backend machine* serving many
// concurrent front ends, and this package is that machine's front door.
// A Server listens on TCP, gives every connection an isolated xlang
// session over one shared read-mostly catalog.Database, and evaluates
// statements under admission control (a bounded worker semaphore),
// per-query deadlines (context cancellation threaded through the
// evaluator and the algebra hot loops), and graceful shutdown that
// drains in-flight queries. Activity is published through
// internal/metrics and read back through the `__sys.*` system views;
// the admin read commands (.stats .metrics .slow .tables .schema) are
// aliases for queries of those views, not a second encoding.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"xst/internal/catalog"
	"xst/internal/core"
	"xst/internal/metrics"
	"xst/internal/plan"
	"xst/internal/store"
	"xst/internal/sysview"
	"xst/internal/table"
	"xst/internal/trace"
	"xst/internal/wal"
	"xst/internal/xlang"
)

// ErrServerClosed is returned by Serve after Shutdown completes.
var ErrServerClosed = errors.New("server: closed")

// Config tunes a Server. Zero values select the defaults noted on each
// field.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":7143",
	// a nod to the paper's year).
	Addr string
	// DB, when set, is the shared database: its tables are bound into
	// every session's environment at startup and its buffer-pool stats
	// appear in MetricsSnapshot. The server never writes table data; `.analyze`
	// and `.createindex` update its statistics/index metadata.
	DB *catalog.Database
	// MaxWorkers bounds concurrently evaluating queries (default 64).
	MaxWorkers int
	// QueueTimeout is how long a query waits for a worker slot before
	// being rejected with "server busy" (default 1s).
	QueueTimeout time.Duration
	// DefaultTimeout is the per-query deadline when the request does
	// not set one (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout caps request-supplied deadlines (default 60s).
	MaxTimeout time.Duration
	// IdleTimeout closes connections with no request for this long
	// (default 5m).
	IdleTimeout time.Duration
	// WriteTimeout bounds writing one response (default 10s).
	WriteTimeout time.Duration
	// MaxLineBytes bounds one request line (default 1 MiB).
	MaxLineBytes int
	// SlowQuery, when positive, traces every statement and logs those
	// whose total time meets or exceeds it — one structured JSON line
	// (the span tree) through Logf, with one __sys.slow row (the `.slow`
	// alias) per statement. Zero disables the slow-query log.
	SlowQuery time.Duration
	// TraceSample, when positive, traces 1-in-N statements even without
	// SlowQuery; sampled traces feed the `.trace` admin command. Zero
	// disables sampling.
	TraceSample int
	// SlowLogSize bounds the slow-query and recent-trace rings
	// (default 64 each).
	SlowLogSize int
	// Logf, when set, receives server lifecycle logs.
	Logf func(format string, args ...any)
	// Compile, when set, replaces xlang.CompileQuery for query
	// statements — how a federation coordinator reuses the whole server
	// front end (admission, deadlines, streaming, tracing, metrics)
	// with its own planner. The session environment is passed for
	// planners that want it; a coordinator typically ignores it.
	Compile func(env *xlang.Env, stmt string) (Query, error)
}

// Query is what the server needs from a compiled query statement:
// *xlang.Query satisfies it, and so does a federated query. DOP prices
// admission, Schema labels wire-mode results, Run streams batches.
type Query interface {
	DOP() int
	Schema() table.Schema
	Run(ctx context.Context, emit func(rows []table.Row) error) (plan.ExecStats, error)
}

func (c *Config) fill() {
	if c.Addr == "" {
		c.Addr = ":7143"
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 64
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = time.Second
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.MaxLineBytes <= 0 {
		c.MaxLineBytes = 1 << 20
	}
	if c.SlowLogSize <= 0 {
		c.SlowLogSize = 64
	}
}

// Metrics is the server's instrumentation, readable at any time.
type Metrics struct {
	QueriesOK       metrics.Counter
	QueriesErr      metrics.Counter
	QueriesTimeout  metrics.Counter
	Rejected        metrics.Counter
	AdminCmds       metrics.Counter
	RowsStreamed    metrics.Counter
	BatchesStreamed metrics.Counter
	BytesIn         metrics.Counter
	BytesOut        metrics.Counter
	ConnsTotal      metrics.Counter
	ParallelQueries metrics.Counter
	TracedQueries   metrics.Counter
	SlowQueries     metrics.Counter
	ActiveConns     metrics.Gauge
	InFlight        metrics.Gauge
	WorkerTokens    metrics.Gauge
	Latency         metrics.Histogram

	// Durability: write-ahead-log and transaction activity, fed by the
	// attached database's wal.Manager hooks (zero when no DB).
	WALAppends  metrics.Counter
	WALBytes    metrics.Counter
	Checkpoints metrics.Counter
	TxnBegin    metrics.Counter
	TxnCommit   metrics.Counter
	TxnAbort    metrics.Counter
	WALFsync    metrics.Histogram

	// MVCC/WAL health: how long checkpoint folds take, and how many
	// superseded page images each version-chain prune reclaims. The
	// prune histogram records image counts on the microsecond tick, so
	// its log2 buckets count images, not time.
	CheckpointDur metrics.Histogram
	PruneBatch    metrics.Histogram
}

// Snapshot is a point-in-time view of the server's metrics, for
// in-process callers that own the server; clients read the same
// counters from __sys.metrics.
type Snapshot struct {
	QueriesOK       uint64               `json:"queries_ok"`
	QueriesErr      uint64               `json:"queries_err"`
	QueriesTimeout  uint64               `json:"queries_timeout"`
	Rejected        uint64               `json:"rejected"`
	AdminCmds       uint64               `json:"admin_cmds"`
	RowsStreamed    uint64               `json:"rows_streamed"`
	BatchesStreamed uint64               `json:"batches_streamed"`
	BytesIn         uint64               `json:"bytes_in"`
	BytesOut        uint64               `json:"bytes_out"`
	ConnsTotal      uint64               `json:"conns_total"`
	ParallelQueries uint64               `json:"parallel_queries"`
	TracedQueries   uint64               `json:"traced_queries"`
	SlowQueries     uint64               `json:"slow_queries"`
	ActiveConns     int64                `json:"active_conns"`
	InFlight        int64                `json:"in_flight"`
	WorkerTokens    int64                `json:"worker_tokens"`
	Latency         metrics.HistSnapshot `json:"latency"`
	Pool            *store.PoolInfo      `json:"pool,omitempty"`
}

// Server is a concurrent xlang query server. Create with New, start
// with ListenAndServe or Serve, stop with Shutdown.
type Server struct {
	cfg     Config
	baseEnv *xlang.Env
	// current provides the database's current planner catalog; a
	// session's provider returns to it after each query statement, which
	// pins its own snapshot.
	current func() *plan.Catalog
	m       Metrics
	// reg names every metric for __sys.metrics and the HTTP /metrics
	// endpoint.
	reg *metrics.Registry
	// tracer samples 1-in-N statements for always-on tracing.
	tracer trace.Tracer
	// slow holds the span trees of queries over the SlowQuery threshold;
	// traces holds the most recent sampled or forced traces (`.trace`).
	slow   *traceRing
	traces *traceRing
	// queries tracks in-flight and recent statements (__sys.queries).
	queries *queryLog
	// started anchors the uptime gauge.
	started time.Time
	// sem holds the worker tokens (receive to acquire, send to refund):
	// a serial query costs one token, a parallel query one per planned
	// worker, so an 8-way query occupies eight slots of the pool and
	// cannot multiply the server's concurrency past MaxWorkers.
	sem chan struct{}
	// acqMu serializes multi-token acquisition so two parallel queries
	// cannot deadlock each holding half of the last tokens.
	acqMu sync.Mutex

	mu       sync.Mutex
	lis      net.Listener
	sessions map[*session]struct{}
	draining bool

	wg sync.WaitGroup
}

// session is one connection's state: an isolated environment plus the
// bookkeeping graceful shutdown needs to tell idle from in-flight.
type session struct {
	conn net.Conn
	env  *xlang.Env

	// scratch holds session-private tables created by `.load`, over a
	// lazily created in-memory pool. Only the session's own request
	// loop touches them (requests on one connection are serial).
	scratch map[string]*table.Table
	pool    *store.BufferPool

	// line is the response line being written; row and enc are where
	// batchLine renders a row before quoting it; in reads request lines.
	line, row, enc []byte
	in             scanner

	mu       sync.Mutex
	busy     bool // evaluating a request
	draining bool // close as soon as not busy
}

// New builds a Server over cfg, binding the database's tables (if any)
// into the base environment every session clones.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	base := xlang.NewEnv()
	if cfg.DB != nil {
		if err := cfg.DB.BindAll(base); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	sem := make(chan struct{}, cfg.MaxWorkers)
	for i := 0; i < cfg.MaxWorkers; i++ {
		sem <- struct{}{}
	}
	s := &Server{
		cfg:      cfg,
		baseEnv:  base,
		sem:      sem,
		sessions: map[*session]struct{}{},
		slow:     newTraceRing(cfg.SlowLogSize),
		traces:   newTraceRing(cfg.SlowLogSize),
		queries:  newQueryLog(cfg.SlowLogSize),
		started:  time.Now(),
	}
	s.tracer.SetSample(cfg.TraceSample)
	if err := s.registerMetrics(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if cfg.DB != nil {
		s.current = cfg.DB.PlanCatalog
		s.hookWAL()
	}
	s.bindSysViews(base)
	return s, nil
}

// bindSysViews registers the server-owned system views — live/recent
// statements, the flattened metrics registry, and the slow-query ring —
// alongside whatever database views BindAll already installed. Each
// Rows function snapshots at query open.
func (s *Server) bindSysViews(env *xlang.Env) {
	env.BindVirtual(sysview.Queries, sysview.Standard(sysview.Queries,
		"in-flight and recently finished statements",
		func(context.Context) ([]table.Row, error) { return s.queries.rows(), nil }))
	env.BindVirtual(sysview.Metrics, sysview.Standard(sysview.Metrics,
		"the metrics registry, one row per series",
		func(context.Context) ([]table.Row, error) { return sysview.MetricsRows(s.reg.Snapshot()), nil }))
	env.BindVirtual(sysview.Slow, sysview.Standard(sysview.Slow,
		"statements over the slow-query threshold",
		func(context.Context) ([]table.Row, error) { return sysview.SlowRows(s.slow.list()), nil }))
}

// registerMetrics names every server metric in the registry, the
// catalog behind __sys.metrics and the HTTP /metrics endpoint.
func (s *Server) registerMetrics() error {
	s.reg = metrics.NewRegistry()
	var err error
	counter := func(name, help string, c *metrics.Counter) {
		if err == nil {
			err = s.reg.RegisterCounter(name, help, c)
		}
	}
	gauge := func(name, help string, g *metrics.Gauge) {
		if err == nil {
			err = s.reg.RegisterGauge(name, help, g)
		}
	}
	counter("xstd_queries_ok_total", "statements answered successfully", &s.m.QueriesOK)
	counter("xstd_queries_err_total", "statements failed", &s.m.QueriesErr)
	counter("xstd_queries_timeout_total", "statements past their deadline", &s.m.QueriesTimeout)
	counter("xstd_rejected_total", "statements rejected by admission control", &s.m.Rejected)
	counter("xstd_admin_cmds_total", "admin commands served", &s.m.AdminCmds)
	counter("xstd_rows_streamed_total", "result rows streamed to clients", &s.m.RowsStreamed)
	counter("xstd_batches_streamed_total", "result batches streamed to clients", &s.m.BatchesStreamed)
	counter("xstd_bytes_in_total", "request bytes read", &s.m.BytesIn)
	counter("xstd_bytes_out_total", "response bytes written", &s.m.BytesOut)
	counter("xstd_conns_total", "connections accepted", &s.m.ConnsTotal)
	counter("xstd_parallel_queries_total", "queries run with parallel workers", &s.m.ParallelQueries)
	counter("xstd_traced_queries_total", "statements that carried a span tree", &s.m.TracedQueries)
	counter("xstd_slow_queries_total", "statements over the slow-query threshold", &s.m.SlowQueries)
	gauge("xstd_active_conns", "connections currently open", &s.m.ActiveConns)
	gauge("xstd_in_flight", "statements evaluating now", &s.m.InFlight)
	gauge("xstd_worker_tokens", "worker tokens held by running queries", &s.m.WorkerTokens)
	counter("xstd_wal_appends_total", "records appended to the write-ahead log", &s.m.WALAppends)
	counter("xstd_wal_bytes_total", "bytes appended to the write-ahead log", &s.m.WALBytes)
	counter("xstd_checkpoints_total", "log checkpoints (folds into the base file)", &s.m.Checkpoints)
	counter("xstd_txn_begin_total", "transactions started", &s.m.TxnBegin)
	counter("xstd_txn_commit_total", "transactions committed", &s.m.TxnCommit)
	counter("xstd_txn_abort_total", "transactions aborted", &s.m.TxnAbort)
	if err == nil {
		err = s.reg.RegisterHistogram("xstd_query_latency_seconds", "per-statement latency", &s.m.Latency)
	}
	if err == nil {
		err = s.reg.RegisterHistogram("xstd_wal_fsync_seconds", "write-ahead-log fsync latency", &s.m.WALFsync)
	}
	if err == nil {
		err = s.reg.RegisterHistogram("xstd_checkpoint_seconds", "log-fold (checkpoint) duration", &s.m.CheckpointDur)
	}
	if err == nil {
		err = s.reg.RegisterHistogram("xstd_mvcc_prune_images", "superseded images reclaimed per version-chain prune (bucket bounds count images)", &s.m.PruneBatch)
	}
	gaugeFn := func(name, help string, fn func() int64) {
		if err == nil {
			err = s.reg.RegisterGaugeFunc(name, help, fn)
		}
	}
	// Process health: computed at scrape time, no update loop.
	gaugeFn("xstd_go_goroutines", "live goroutines", func() int64 {
		return int64(runtime.NumGoroutine())
	})
	gaugeFn("xstd_heap_bytes", "heap bytes in use", func() int64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	})
	gaugeFn("xstd_uptime_seconds", "seconds since the server was built", func() int64 {
		return int64(time.Since(s.started).Seconds())
	})
	if s.cfg.DB != nil {
		pool := s.cfg.DB.Pool()
		mgr := s.cfg.DB.WAL()
		// MVCC/WAL health: long-pinned snapshots hold superseded images
		// alive and an unchecked log grows recovery time — these gauges
		// make both visible before they hurt.
		gaugeFn("xstd_mvcc_snapshot_oldest_seconds", "age of the oldest pinned MVCC snapshot", func() int64 {
			return int64(pool.OldestPinnedAge().Seconds())
		})
		gaugeFn("xstd_mvcc_pinned_snapshots", "MVCC views currently pinned", func() int64 {
			return int64(pool.ActiveViews())
		})
		gaugeFn("xstd_mvcc_superseded_pages", "superseded page images retained for active views", func() int64 {
			return int64(pool.SupersededImages())
		})
		gaugeFn("xstd_mvcc_images_reclaimed_total", "lifetime superseded images dropped by pruning", func() int64 {
			return int64(pool.ReclaimedImages())
		})
		gaugeFn("xstd_wal_bytes_since_checkpoint", "log bytes appended since the last checkpoint", func() int64 {
			return mgr.LoggedBytes()
		})
		// The buffer pool, read through: the series of __sys.bufferpool.
		for i, col := range sysview.StandardCols[sysview.Pool] {
			i := i
			gaugeFn("xstd_pool_"+col, "buffer pool: "+col+" (see __sys.bufferpool)", func() int64 {
				return int64(sysview.PoolRow(pool.Info())[i].(core.Int))
			})
		}
	}
	return err
}

// hookWAL feeds the database's transaction-manager events into the
// server's metric counters, and the buffer pool's prune events into the
// reclaim histogram.
func (s *Server) hookWAL() {
	s.cfg.DB.WAL().SetHooks(wal.Hooks{
		Append: func(bytes int) {
			s.m.WALAppends.Inc()
			s.m.WALBytes.Add(uint64(bytes))
		},
		Sync:   func(d time.Duration) { s.m.WALFsync.Record(d) },
		Begin:  func() { s.m.TxnBegin.Inc() },
		Commit: func(int) { s.m.TxnCommit.Inc() },
		Abort:  func() { s.m.TxnAbort.Inc() },
		Checkpoint: func(d time.Duration) {
			s.m.Checkpoints.Inc()
			s.m.CheckpointDur.Record(d)
		},
	})
	s.cfg.DB.Pool().SetPruneHook(func(images int) {
		// Image counts ride the histogram's microsecond tick — see the
		// PruneBatch field comment.
		s.m.PruneBatch.Record(time.Duration(images) * time.Microsecond)
	})
}

// Registry exposes the named-metric catalog (for the HTTP /metrics
// endpoint and tools that read quantiles by name).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// acquire claims n worker tokens, waiting at most wait for all of them;
// on timeout it refunds any partial claim and reports false. Multi-token
// claims are serialized so concurrent parallel queries cannot deadlock
// holding complementary halves of the pool. Free tokens are claimed
// without waiting; the deadline timer is armed only when one is not.
func (s *Server) acquire(n int, wait time.Duration) bool {
	s.acqMu.Lock()
	var deadline *time.Timer
	for got := 0; got < n; got++ {
		select {
		case <-s.sem:
			continue
		default:
		}
		if deadline == nil {
			deadline = time.NewTimer(wait)
			defer deadline.Stop()
		}
		select {
		case <-s.sem:
		case <-deadline.C:
			s.acqMu.Unlock()
			s.release(got)
			return false
		}
	}
	s.acqMu.Unlock()
	return true
}

// release refunds n worker tokens. Never called under a lock: refunding
// is a channel send and must not block a mutex holder.
func (s *Server) release(n int) {
	for i := 0; i < n; i++ {
		s.sem <- struct{}{}
	}
}

// Metrics exposes the live counters (snapshot with MetricsSnapshot).
func (s *Server) Metrics() *Metrics { return &s.m }

// MetricsSnapshot captures the current metrics, including buffer-pool
// stats when a database is attached.
func (s *Server) MetricsSnapshot() Snapshot {
	snap := Snapshot{
		QueriesOK:       s.m.QueriesOK.Value(),
		QueriesErr:      s.m.QueriesErr.Value(),
		QueriesTimeout:  s.m.QueriesTimeout.Value(),
		Rejected:        s.m.Rejected.Value(),
		AdminCmds:       s.m.AdminCmds.Value(),
		RowsStreamed:    s.m.RowsStreamed.Value(),
		BatchesStreamed: s.m.BatchesStreamed.Value(),
		BytesIn:         s.m.BytesIn.Value(),
		BytesOut:        s.m.BytesOut.Value(),
		ConnsTotal:      s.m.ConnsTotal.Value(),
		ParallelQueries: s.m.ParallelQueries.Value(),
		TracedQueries:   s.m.TracedQueries.Value(),
		SlowQueries:     s.m.SlowQueries.Value(),
		ActiveConns:     s.m.ActiveConns.Value(),
		InFlight:        s.m.InFlight.Value(),
		WorkerTokens:    s.m.WorkerTokens.Value(),
		Latency:         s.m.Latency.Snapshot(),
	}
	if s.cfg.DB != nil {
		in := s.cfg.DB.Pool().Info()
		snap.Pool = &in
	}
	return snap
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// ListenAndServe listens on cfg.Addr and serves until Shutdown.
func (s *Server) ListenAndServe() error {
	l, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Addr reports the bound listen address ("" before Serve).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Serve accepts connections on l until Shutdown, running one session
// goroutine per connection. It returns ErrServerClosed after a clean
// shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		l.Close()
		return ErrServerClosed
	}
	s.lis = l
	s.mu.Unlock()
	s.logf("xstd: serving on %s (workers=%d, default timeout=%v)",
		l.Addr(), s.cfg.MaxWorkers, s.cfg.DefaultTimeout)
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		sess := &session{conn: conn, env: s.baseEnv.Clone()}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.sessions[sess] = struct{}{}
		s.mu.Unlock()
		s.m.ConnsTotal.Inc()
		s.m.ActiveConns.Inc()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(sess)
		}()
	}
}

// Shutdown stops accepting, closes idle connections, and waits for
// in-flight queries to finish (each session closes itself after writing
// its pending response). When ctx expires first, remaining connections
// are closed forcibly and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	lis := s.lis
	for sess := range s.sessions {
		sess.mu.Lock()
		sess.draining = true
		if !sess.busy {
			sess.conn.Close()
		}
		sess.mu.Unlock()
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for sess := range s.sessions {
			sess.conn.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// serveConn runs one connection's request loop.
func (s *Server) serveConn(sess *session) {
	defer func() {
		sess.conn.Close()
		s.mu.Lock()
		delete(s.sessions, sess)
		s.mu.Unlock()
		s.m.ActiveConns.Dec()
	}()
	sc := bufio.NewScanner(sess.conn)
	sc.Buffer(make([]byte, 0, 4096), s.cfg.MaxLineBytes)
	for {
		sess.conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		if !sc.Scan() {
			return // EOF, idle timeout, or closed by Shutdown
		}
		line := sc.Bytes()
		s.m.BytesIn.Add(uint64(len(line)) + 1)
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		req := sess.in.request(line)

		sess.mu.Lock()
		if sess.draining {
			sess.mu.Unlock()
			return
		}
		sess.busy = true
		sess.mu.Unlock()

		resp, quit := s.handle(sess, req)
		sess.line = appendResponse(sess.line[:0], &resp)
		err := s.writeLine(sess)

		sess.mu.Lock()
		sess.busy = false
		drained := sess.draining
		sess.mu.Unlock()
		if err != nil || quit || drained {
			return
		}
	}
}

// writeLine writes sess.line to the connection. A line buffer over 1 MiB
// is dropped, so one huge result does not pin it for the connection.
func (s *Server) writeLine(sess *session) error {
	sess.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	n, err := sess.conn.Write(sess.line)
	s.m.BytesOut.Add(uint64(n))
	if cap(sess.line) > 1<<20 {
		sess.line = nil
	}
	return err
}

// handle evaluates one request, applying admission control and the
// per-query deadline. Query statements write intermediate batch lines
// to the connection before the final response; everything else produces
// only the returned response. quit reports that the connection should close
// after the final response is written.
//
// Tracing: a statement is traced when it is a `.trace <stmt>` request,
// when the slow-query log is armed (SlowQuery > 0 traces everything so
// a slow query's tree is available post-hoc), or when the 1-in-N
// sampler picks it. Traced statements carry a root span through
// compile, admission and execution; the finished tree lands in the
// recent-traces ring, and in the slow-query log (plus one structured
// log line) when the statement ran past the threshold.
func (s *Server) handle(sess *session, req Request) (resp Response, quit bool) {
	start := time.Now()
	var root *trace.Span
	var lq *liveQuery
	defer func() {
		resp.ID = req.ID
		resp.ElapsedUS = time.Since(start).Microseconds()
		s.finishTrace(root, time.Since(start))
		// A distributed-trace request gets its finished tree on the final
		// line (after finishTrace ended the root), so the coordinator can
		// graft this site's spans into its own.
		if req.TraceID != "" && root != nil && resp.Error == "" {
			snap := root.Snapshot()
			resp.Trace = &snap
		}
		s.queries.finish(lq, resp.Error != "")
	}()

	// `.trace <stmt>` runs stmt forcibly traced and answers with the
	// span tree instead of the rendered result; bare `.trace` is an
	// admin command (most recent sampled trace).
	forceTrace := false
	if rest, ok := strings.CutPrefix(req.Stmt, ".trace "); ok && strings.TrimSpace(rest) != "" {
		forceTrace = true
		req.Stmt = strings.TrimSpace(rest)
	}
	if q, ok := viewAliases[strings.TrimSpace(req.Stmt)]; ok {
		req.Stmt = q
	}

	if strings.HasPrefix(req.Stmt, ".") {
		s.m.AdminCmds.Inc()
		return s.handleAdmin(sess, req)
	}

	lq = s.queries.begin(req.Stmt)

	if req.TraceID != "" {
		// Joining a distributed trace forces tracing: the coordinator
		// asked for this fragment's spans back.
		root = trace.NewRootTrace("query", req.TraceID)
		root.SetNote(req.Stmt)
		s.m.TracedQueries.Inc()
	} else if forceTrace || s.cfg.SlowQuery > 0 || s.tracer.Sample() {
		root = trace.NewRoot("query")
		root.SetNote(req.Stmt)
		s.m.TracedQueries.Inc()
	}

	// Snapshot isolation: pin the commit epoch together with the planner
	// catalog that was current at the same instant, so compile and
	// execution see one consistent world — an in-flight streaming query
	// keeps returning its pinned snapshot while writers commit.
	var rt catalog.ReadTxn
	if s.cfg.DB != nil && xlang.IsQuery(req.Stmt) {
		rt = s.cfg.DB.BeginRead()
		defer rt.View.Release()
		sess.env.BindPlanCatalog(func() *plan.Catalog { return rt.Snap })
		defer sess.env.BindPlanCatalog(s.current)
	}

	// Compile query statements before admission so the cost-chosen
	// degree of parallelism prices the request: a dop-way query claims
	// dop worker tokens, so parallel fan-out spends the same bounded
	// pool as extra concurrent queries would.
	tokens := 1
	var q Query
	if xlang.IsQuery(req.Stmt) {
		lq.setPhase("compile")
		csp := root.Start("compile")
		var err error
		if s.cfg.Compile != nil {
			q, err = s.cfg.Compile(sess.env, req.Stmt)
		} else {
			q, err = xlang.CompileQuery(sess.env, req.Stmt)
		}
		csp.End()
		if err != nil {
			s.m.QueriesErr.Inc()
			return Response{Error: err.Error()}, false
		}
		if tokens = q.DOP(); tokens > s.cfg.MaxWorkers {
			tokens = s.cfg.MaxWorkers
		}
	}

	// Admission control: a bounded worker-token pool. Queries that
	// cannot claim their tokens within QueueTimeout are rejected,
	// bounding both CPU and queueing delay under overload.
	lq.setPhase("admission")
	asp := root.Start("admission")
	admitted := s.acquire(tokens, s.cfg.QueueTimeout)
	asp.End()
	if !admitted {
		s.m.Rejected.Inc()
		return Response{Error: "server busy: admission queue full"}, false
	}
	defer s.release(tokens)
	if tokens > 1 {
		s.m.ParallelQueries.Inc()
	}
	s.m.WorkerTokens.Add(int64(tokens))
	defer s.m.WorkerTokens.Add(-int64(tokens))

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	ctx = trace.WithSpan(ctx, root)
	var epoch uint64
	if rt.View != nil {
		ctx = store.WithView(ctx, rt.View)
		epoch = rt.View.Epoch()
	}
	// Attribution: the root span (and so the slow-query log) records the
	// pinned snapshot epoch and worker-token count the statement ran at.
	root.SetEpoch(epoch)
	root.SetDOP(tokens)
	lq.setExec(tokens, epoch)
	lq.setPhase("exec")

	s.m.InFlight.Inc()
	var result string
	var rows int
	var err error
	if q != nil {
		rows, err = s.streamQuery(ctx, sess, q, req, lq)
		result = strconv.Itoa(rows) + " rows"
	} else {
		var v core.Value
		v, err = xlang.EvalCtx(ctx, sess.env, req.Stmt)
		if err == nil {
			result = fmt.Sprint(v)
		}
	}
	s.m.InFlight.Dec()
	s.m.Latency.Record(time.Since(start))
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.m.QueriesTimeout.Inc()
			return Response{Error: fmt.Sprintf("query deadline exceeded (%v)", timeout)}, false
		}
		s.m.QueriesErr.Inc()
		return Response{Error: err.Error()}, false
	}
	s.m.QueriesOK.Inc()
	if forceTrace {
		root.End()
		return Response{Result: root.Snapshot().JSON(), Rows: rows}, false
	}
	resp = Response{Result: result, Rows: rows}
	if req.Wire && q != nil {
		resp.Schema = q.Schema().Cols
	}
	return resp, false
}

// finishTrace closes a traced statement's root span and files its
// snapshot: always into the recent-traces ring, and into the slow-query
// log — with one structured JSON log line — when the statement ran at
// or past the SlowQuery threshold. A nil root (untraced statement) is
// a no-op.
func (s *Server) finishTrace(root *trace.Span, elapsed time.Duration) {
	if root == nil {
		return
	}
	root.End()
	snap := root.Snapshot()
	s.traces.add(snap)
	if s.cfg.SlowQuery > 0 && elapsed >= s.cfg.SlowQuery {
		s.m.SlowQueries.Inc()
		s.slow.add(snap)
		s.logf("xstd: slow query (%v ≥ %v): %s", elapsed.Round(time.Microsecond), s.cfg.SlowQuery, snap.JSON())
	}
}

// streamQuery runs a query statement on the streaming operator tree,
// writing each result batch to the connection as an intermediate
// More-marked line the moment the tree produces it — the client sees
// first rows while the rest are still being computed, and the server
// never holds a full result. Wire-mode requests get each row in the
// table codec (base64) instead of rendered text.
func (s *Server) streamQuery(ctx context.Context, sess *session, q Query, req Request, lq *liveQuery) (int, error) {
	rows := 0
	_, err := q.Run(ctx, func(batch []table.Row) error {
		sess.batchLine(req.ID, batch, req.Wire)
		rows += len(batch)
		lq.addRows(len(batch))
		s.m.RowsStreamed.Add(uint64(len(batch)))
		s.m.BatchesStreamed.Inc()
		return s.writeLine(sess)
	})
	return rows, err
}

// loadRequest is the payload of `.load`: wire-encoded rows for a
// session-private scratch table.
type loadRequest struct {
	Table string   `json:"table"`
	Cols  []string `json:"cols"`
	Rows  []string `json:"rows"`
}

// viewAliases are the admin read commands. Each is sugar for a query of
// the system view that holds its facts, so it streams, takes admission
// and shows in __sys.queries like any statement.
var viewAliases = map[string]string{
	".stats":   "from " + sysview.Metrics,
	".metrics": "from " + sysview.Metrics,
	".slow":    "from " + sysview.Slow,
	".tables":  "from " + sysview.Tables,
	".schema":  "from " + sysview.Tables,
}

// handleAdmin serves the '.' commands that act.
func (s *Server) handleAdmin(sess *session, req Request) (Response, bool) {
	if rest, ok := strings.CutPrefix(strings.TrimSpace(req.Stmt), ".load "); ok {
		return s.handleLoad(sess, rest)
	}
	if rest, ok := strings.CutPrefix(strings.TrimSpace(req.Stmt), ".createindex "); ok {
		return s.handleCreateIndex(rest)
	}
	switch cmd := strings.TrimSpace(req.Stmt); cmd {
	case ".analyze":
		if s.cfg.DB == nil {
			return Response{Error: "(no database attached)"}, false
		}
		n, err := s.cfg.DB.Analyze(context.Background())
		if err != nil {
			return Response{Error: err.Error()}, false
		}
		return Response{Result: fmt.Sprintf("analyzed %d tables", n)}, false
	case ".checkpoint":
		if s.cfg.DB == nil {
			return Response{Error: "(no database attached)"}, false
		}
		if err := s.cfg.DB.Checkpoint(); err != nil {
			return Response{Error: err.Error()}, false
		}
		return Response{Result: "checkpoint complete"}, false
	case ".ping":
		return Response{Result: "pong"}, false
	case ".trace":
		snap, ok := s.traces.last()
		if !ok {
			return Response{Error: "no traces recorded (use `.trace <stmt>`, -trace-sample or -slow-query)"}, false
		}
		return Response{Result: snap.JSON()}, false
	case ".quit", ".close", ".exit":
		return Response{Result: "bye"}, true
	default:
		return Response{Error: fmt.Sprintf("unknown admin command %q (try .ping .trace .load .analyze .createindex .checkpoint .quit, or the view aliases .stats .metrics .slow .tables .schema)", cmd)}, false
	}
}

// handleCreateIndex serves `.createindex <table> <col> <kind>`: it
// declares, builds, and persists an index, making it available to every
// session's next compiled query.
func (s *Server) handleCreateIndex(args string) (Response, bool) {
	if s.cfg.DB == nil {
		return Response{Error: "(no database attached)"}, false
	}
	f := strings.Fields(args)
	if len(f) != 3 {
		return Response{Error: ".createindex wants <table> <col> <hash|btree>"}, false
	}
	ix, err := s.cfg.DB.CreateIndex(context.Background(), f[0], f[1], f[2])
	if err != nil {
		return Response{Error: err.Error()}, false
	}
	return Response{Result: fmt.Sprintf("index created: %s.%s (%s)", ix.Table, ix.Col, ix.Kind)}, false
}

// handleLoad routes wire-encoded rows to one of two destinations. A
// "__"-prefixed name is a session-private scratch table over a lazily
// created in-memory pool that dies with the session. Any other name is
// a shared catalog table loaded through one transaction per chunk —
// one WAL fsync for the whole batch — created durably on the first
// chunk if absent.
func (s *Server) handleLoad(sess *session, payload string) (Response, bool) {
	var lr loadRequest
	if err := json.Unmarshal([]byte(payload), &lr); err != nil {
		return Response{Error: fmt.Sprintf("bad .load payload: %v", err)}, false
	}
	if !strings.HasPrefix(lr.Table, "__") {
		return s.loadShared(lr)
	}
	t, ok := sess.scratch[lr.Table]
	if !ok {
		if len(lr.Cols) == 0 {
			return Response{Error: ".load needs cols on first chunk"}, false
		}
		if sess.pool == nil {
			sess.pool = store.NewBufferPool(store.NewMemPager(), 256)
			sess.scratch = map[string]*table.Table{}
		}
		var err error
		t, err = table.Create(sess.pool, table.Schema{Name: lr.Table, Cols: lr.Cols})
		if err != nil {
			return Response{Error: err.Error()}, false
		}
		sess.scratch[lr.Table] = t
		sess.env.BindTable(lr.Table, t)
	}
	for _, b64 := range lr.Rows {
		raw, err := base64.StdEncoding.DecodeString(b64)
		if err != nil {
			return Response{Error: fmt.Sprintf("bad .load row: %v", err)}, false
		}
		r, err := table.DecodeRow(raw)
		if err != nil {
			return Response{Error: fmt.Sprintf("bad .load row: %v", err)}, false
		}
		if _, err := t.Insert(r); err != nil {
			return Response{Error: err.Error()}, false
		}
	}
	return Response{Result: fmt.Sprintf("%s: %d rows", lr.Table, t.Count())}, false
}

// loadShared loads one chunk of rows into a shared catalog table as a
// single transaction: the rows, any table creation, the catalog page,
// and the index maintenance all commit under one log fsync. The commit
// publishes the table with its indexes in the planner snapshot, where
// every session's next query — this one's included — resolves it.
func (s *Server) loadShared(lr loadRequest) (Response, bool) {
	if s.cfg.DB == nil {
		return Response{Error: "(no database attached)"}, false
	}
	db := s.cfg.DB
	if _, err := db.Table(lr.Table); err != nil {
		if len(lr.Cols) == 0 {
			return Response{Error: ".load needs cols on first chunk"}, false
		}
		if _, err := db.CreateTable(table.Schema{Name: lr.Table, Cols: lr.Cols}); err != nil {
			return Response{Error: err.Error()}, false
		}
	}
	rows := make([]table.Row, 0, len(lr.Rows))
	for _, b64 := range lr.Rows {
		raw, err := base64.StdEncoding.DecodeString(b64)
		if err != nil {
			return Response{Error: fmt.Sprintf("bad .load row: %v", err)}, false
		}
		r, err := table.DecodeRow(raw)
		if err != nil {
			return Response{Error: fmt.Sprintf("bad .load row: %v", err)}, false
		}
		rows = append(rows, r)
	}
	if err := db.Load(context.Background(), lr.Table, rows); err != nil {
		return Response{Error: err.Error()}, false
	}
	t, err := db.Table(lr.Table)
	if err != nil {
		return Response{Error: err.Error()}, false
	}
	return Response{Result: fmt.Sprintf("%s: %d rows", lr.Table, t.Count())}, false
}
