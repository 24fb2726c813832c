package fed

import (
	"context"
	"fmt"
	"time"

	"xst/internal/exec"
	"xst/internal/server"
	"xst/internal/table"
	"xst/internal/trace"
)

// fragFunc prepares one fragment attempt on a checked-out connection —
// shipping any scratch tables (broadcast build sides, semijoin key
// sets) — and returns the fragment's query request. It is called once
// per attempt; side effects must use fresh scratch names so a retry
// never observes a half-loaded predecessor (`.load` extends an existing
// scratch table rather than replacing it).
type fragFunc func(ctx context.Context, st *site, conn *server.Client, attempt int) (server.Request, error)

// Remote streams one fragment's result from one site: an exec.Operator
// leaf whose batches arrive wire-encoded over the xstd protocol. Open
// dials (or reuses) a pooled server.Client and sends the fragment with
// the remaining context budget as its site-side deadline; a
// context.AfterFunc hook closes the client if the context dies
// mid-stream, which is how Gather's first-error-wins cancellation
// reaches into a blocked network read. Attempts that fail before the
// first row are retried with exponential backoff up to the configured
// budget; after rows have streamed the query fails instead (resending
// would duplicate output).
type Remote struct {
	c     *Coordinator
	st    *site
	sch   table.Schema
	fq    fragFunc
	label string

	ctx     context.Context
	conn    *server.Client
	reqID   uint64
	stop    func() bool // stops conn's close-on-cancel hook
	attempt int
	emitted bool
	done    bool
	start   time.Time
	stats   exec.OpStats
	open    bool
	// asp is the current attempt's runtime span: one per network
	// attempt, so retries appear as distinct spans in the coordinator's
	// tree, a failed attempt closes with its error, and the site's
	// returned span tree grafts under the attempt that fetched it.
	asp *trace.Span
}

func (c *Coordinator) remote(st *site, sch table.Schema, fq fragFunc, label string) *Remote {
	return &Remote{c: c, st: st, sch: sch, fq: fq, label: label}
}

// Open implements Operator: it runs the first attempt, retrying dial
// and send failures within the retry budget.
func (r *Remote) Open(ctx context.Context) error {
	r.stats = exec.OpStats{}
	defer opTimed(&r.stats, time.Now())
	r.ctx = ctx
	r.start = time.Now()
	r.open = true
	r.emitted = false
	r.done = false
	r.attempt = 0
	return r.startAttempt()
}

// startAttempt checks out a connection, prepares the fragment on it and
// sends the query, burning retry budget on failure.
func (r *Remote) startAttempt() error {
	for {
		err := r.tryStart()
		if err == nil {
			return nil
		}
		if rerr := r.retry(err); rerr != nil {
			return rerr
		}
	}
}

func (r *Remote) tryStart() error {
	parent := trace.SpanOf(r.ctx)
	name := fmt.Sprintf("remote[s%d %s]", r.st.id, r.label)
	if r.attempt > 0 {
		name = fmt.Sprintf("%s retry%d", name, r.attempt)
	}
	asp := parent.Start(name)
	conn, err := r.c.getConn(r.ctx, r.st)
	if err != nil {
		asp.EndErr(err)
		return err
	}
	// The hook covers scratch-table shipping too: fq's admin round
	// trips carry their own flat deadlines, but a cancelled query must
	// not wait them out.
	stop := context.AfterFunc(r.ctx, func() { conn.Close() })
	req, err := r.fq(r.ctx, r.st, conn, r.attempt)
	if err == nil {
		req.Wire = true
		// Propagate the trace identity: the site forces tracing under
		// this id and sends its span tree back on the final line.
		req.TraceID = parent.TraceID()
		req.TimeoutMS = timeoutMS(r.ctx)
		var id uint64
		var nw int
		id, nw, err = conn.Send(req)
		r.c.countBytes(r.st, nw)
		if err == nil {
			r.conn, r.reqID, r.stop, r.asp = conn, id, stop, asp
			return nil
		}
	}
	asp.EndErr(err)
	stop()
	conn.Close()
	return err
}

// retry decides whether err is retryable and sleeps the backoff;
// returning non-nil fails the fragment with that error.
func (r *Remote) retry(err error) error {
	if cerr := r.ctx.Err(); cerr != nil {
		return cerr
	}
	r.c.m.FragErrors.Inc()
	r.st.errs.Inc()
	if r.emitted || r.attempt >= r.c.cfg.Retries {
		r.c.markSite(r.st, false)
		return fmt.Errorf("fed: site %d (%s): %w", r.st.id, r.st.addr, err)
	}
	backoff := r.c.cfg.Backoff << r.attempt
	r.attempt++
	r.c.m.Retries.Inc()
	r.st.retries.Inc()
	if r.c.cfg.Logf != nil {
		r.c.cfg.Logf("fed: site %d fragment attempt %d failed (%v), retrying in %v",
			r.st.id, r.attempt, err, backoff)
	}
	return sleepCtx(r.ctx, backoff)
}

// Next implements Operator.
func (r *Remote) Next() (*table.Batch, error) {
	defer opTimed(&r.stats, time.Now())
	if !r.open {
		return nil, errOpenRemote(r)
	}
	for {
		if r.done {
			return nil, nil
		}
		if err := r.ctx.Err(); err != nil {
			// Terminal like every other error exit below: the stream is
			// mid-flight, so the conn has unread lines and cannot be
			// pooled — drop it and stop its close hook with it.
			r.endAttempt(err)
			r.dropConn()
			return nil, err
		}
		resp, rows, err := r.c.recv(r.st, r.conn, r.reqID, r.sch.Arity(), r.asp)
		if err != nil {
			r.endAttempt(err)
			r.dropConn()
			if rerr := r.retry(err); rerr != nil {
				return nil, rerr
			}
			if rerr := r.startAttempt(); rerr != nil {
				return nil, rerr
			}
			continue
		}
		if resp.Error != "" {
			// A site-side evaluation error is deterministic — the same
			// fragment would fail again — so it is terminal, not retried.
			err := fmt.Errorf("fed: site %d: %s", r.st.id, resp.Error)
			r.endAttempt(err)
			r.dropConn()
			r.c.m.FragErrors.Inc()
			r.st.errs.Inc()
			return nil, err
		}
		if resp.More {
			r.c.countRows(r.st, len(rows))
			r.asp.AddRows(len(rows))
			if len(rows) == 0 {
				continue
			}
			r.emitted = true
			b := table.BatchOf(rows, r.sch.Arity())
			opEmitted(&r.stats, b)
			return b, nil
		}
		// Final line: fragment complete. Graft the site's span tree
		// (fresh local ids) under the attempt and pool the client.
		if resp.Trace != nil {
			r.asp.AttachSnapshot(*resp.Trace)
		}
		r.endAttempt(nil)
		r.done = true
		r.c.m.Fragments.Inc()
		r.st.frags.Inc()
		lat := time.Since(r.start)
		r.c.m.FragLatency.Record(lat)
		r.st.lastLatUS.Store(lat.Microseconds())
		r.c.markSite(r.st, true)
		r.st.release(r.conn, r.stop)
		r.conn, r.stop = nil, nil
		return nil, nil
	}
}

// endAttempt closes the current attempt span (with its error, if the
// attempt failed) — idempotent via the nil reset so the cancellation,
// retry and Close paths cannot double-close one attempt.
func (r *Remote) endAttempt(err error) {
	if r.asp == nil {
		return
	}
	r.asp.EndErr(err)
	r.asp = nil
}

// dropConn abandons the current connection mid-stream.
func (r *Remote) dropConn() {
	if r.conn != nil {
		r.stop()
		r.conn.Close()
		r.conn, r.stop = nil, nil
	}
}

// Close implements Operator. An unfinished stream's connection is
// closed rather than pooled: it still has unread lines in it.
func (r *Remote) Close() error {
	r.open = false
	r.endAttempt(nil)
	r.dropConn()
	return nil
}

// OutSchema implements Operator.
func (r *Remote) OutSchema() table.Schema { return r.sch }

// Stats implements Operator.
func (r *Remote) Stats() exec.OpStats { return r.stats }

// Children implements Operator.
func (r *Remote) Children() []exec.Operator { return nil }

func (r *Remote) String() string {
	return fmt.Sprintf("remote[s%d %s]", r.st.id, r.label)
}

func errOpenRemote(r *Remote) error {
	return fmt.Errorf("exec: %s: Next before Open", r)
}

// opTimed and opEmitted mirror the exec package's unexported OpStats
// bookkeeping for out-of-package operators.
func opTimed(s *exec.OpStats, start time.Time) { s.Ns += time.Since(start).Nanoseconds() }

func opEmitted(s *exec.OpStats, b *table.Batch) {
	s.RowsOut += b.Len
	s.Batches++
	if b.Len > s.MaxBatch {
		s.MaxBatch = b.Len
	}
}
