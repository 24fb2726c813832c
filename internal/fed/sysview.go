package fed

import (
	"context"
	"errors"
	"fmt"

	"xst/internal/core"
	"xst/internal/server"
	"xst/internal/sysview"
	"xst/internal/table"
)

// This file federates the `__sys.*` system catalog: the coordinator
// serves __sys.sites from its own connection-health state, and answers
// every site-local view (__sys.queries, __sys.metrics, __sys.wal, …) by
// fanning the same `from __sys.X` statement out to the sites and
// unioning their rows behind a leading `site` ordinal column — the
// introspection analogue of a partitioned scan.

// fedViews are the site-local views the coordinator federates. Sites
// serve all of them whenever a database is attached; the coordinator
// exposes each with schema {site} ∪ StandardCols[name].
var fedViews = []string{
	sysview.Queries, sysview.Metrics, sysview.Slow,
	sysview.Txns, sysview.Wal, sysview.Indexes, sysview.Stats, sysview.Pool,
	sysview.Tables,
}

// bindSysViews registers the federated system views in the stub
// environment, so `from __sys.wal where site == 2` compiles through the
// ordinary planner; the splitter leaves their plan.Source leaves at the
// coordinator, whose Rows function does the fan-out.
func (c *Coordinator) bindSysViews() {
	c.env.BindVirtual(sysview.Sites, sysview.Standard(sysview.Sites,
		"per-site federation health as seen by this coordinator", c.siteHealthRows))
	for _, name := range fedViews {
		name := name
		cols := append([]string{"site"}, sysview.StandardCols[name]...)
		c.env.BindVirtual(name, &sysview.Table{
			Name: name,
			Help: "union of every site's " + name + ", tagged with the site ordinal",
			Cols: cols,
			Est:  float64(len(c.sites)) * 64,
			Rows: func(ctx context.Context) ([]table.Row, error) {
				return c.gatherSys(ctx, name, len(cols)-1)
			},
		})
	}
}

// siteHealthRows is one __sys.sites row per site: up reflects the most
// recent fragment outcome, counters are the per-site xstd_fed_* series,
// latency is the last completed fragment's wall time.
func (c *Coordinator) siteHealthRows(context.Context) ([]table.Row, error) {
	out := make([]table.Row, 0, len(c.sites))
	for _, st := range c.sites {
		out = append(out, table.Row{
			core.Int(int64(st.id)),
			core.Str(st.addr),
			core.Bool(!st.down.Load()),
			core.Int(int64(st.frags.Value())),
			core.Int(int64(st.retries.Value())),
			core.Int(int64(st.errs.Value())),
			core.Int(int64(st.bytes.Value())),
			core.Int(st.lastLatUS.Load()),
		})
	}
	return out, nil
}

// gatherSys unions one view's rows from every reachable site, each row
// prefixed with its site ordinal. Sites marked down are skipped (their
// absence is itself visible in __sys.sites); an error from a live site
// fails the query rather than silently narrowing the union.
func (c *Coordinator) gatherSys(ctx context.Context, name string, arity int) ([]table.Row, error) {
	var out []table.Row
	for _, st := range c.sites {
		if st.down.Load() {
			continue
		}
		rows, err := c.sysFrom(ctx, st, name, arity)
		if err != nil {
			c.markSite(st, false)
			return nil, fmt.Errorf("fed: site %d (%s): %s: %w", st.id, st.addr, name, err)
		}
		for _, r := range rows {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out = append(out, append(table.Row{core.Int(int64(st.id))}, r...))
		}
	}
	return out, nil
}

// sysFrom streams one site's `from <name>` result to completion over a
// pooled client.
func (c *Coordinator) sysFrom(ctx context.Context, st *site, name string, arity int) ([]table.Row, error) {
	conn, err := c.getConn(ctx, st)
	if err != nil {
		return nil, err
	}
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	id, n, err := conn.Send(server.Request{Stmt: "from " + name, Wire: true, TimeoutMS: timeoutMS(ctx)})
	c.countBytes(st, n)
	var out []table.Row
	for err == nil {
		var resp server.Response
		var rows []table.Row
		if resp, rows, err = c.recv(st, conn, id, arity, nil); err != nil {
			break
		}
		out = append(out, rows...)
		if resp.More {
			continue
		}
		// The final line, an error line included, quiesces the client.
		st.release(conn, stop)
		if resp.Error != "" {
			return nil, errors.New(resp.Error)
		}
		return out, nil
	}
	stop()
	conn.Close()
	return nil, err
}
