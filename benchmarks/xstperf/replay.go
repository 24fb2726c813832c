package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"xst/internal/catalog"
	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/plan"
	"xst/internal/server"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/xlang"
)

// replayed is what one replayed query says about its plan and its
// operators; the timings of every replayed statement are in the spans.
type replayed struct {
	tmpl                    *template
	opSelf                  map[string]time.Duration // operator class → self time
	scanned, out, held, dop int
	indexPath               bool
}

// replayer runs statements of one more seeded stream (a connection id
// the closed loop does not use) against the live database.
type replayer struct {
	w     *world
	env   *xlang.Env
	s     *stream
	spans []span // a span's ID is its index
	self  []time.Duration
	done  []replayed
}

func newReplayer(w *world, streamID int) (*replayer, error) {
	env := xlang.NewEnv()
	if err := w.db.BindAll(env); err != nil {
		return nil, err
	}
	if w.sp.pairs > 0 {
		env.Bind("f", w.f)
		env.Bind("g", w.g)
		env.Bind("ch", w.ch)
	}
	return &replayer{w: w, env: env, s: newStream(w.sp, w.seed, streamID)}, nil
}

// run replays up to n statements, stopping early once budget is spent
// (but never before minReplay statements).
const minReplay = 20

func (rp *replayer) run(n int, budget time.Duration) error {
	start := time.Now()
	for i := 0; i < n; i++ {
		if i >= minReplay && time.Since(start) > budget {
			break
		}
		o := rp.s.next(rp.w)
		r, err := rp.one(uint64(i+1), o)
		rp.s.ack(o, err == nil)
		if err != nil {
			return fmt.Errorf("replay %q: %w", o.text, err)
		}
		rp.done = append(rp.done, r)
	}
	// A layer's self time is its span minus the spans that name it as
	// their parent. A child that was re-run after its parent can come out
	// longer than the parent; the parent's self time is 0 then.
	rp.self = make([]time.Duration, len(rp.spans))
	for i, s := range rp.spans {
		rp.self[i] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			rp.self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	for i := range rp.self {
		rp.self[i] = max(rp.self[i], 0)
	}
	return nil
}

// timed runs fn and records it as a span of statement id under parent.
func (rp *replayer) timed(id uint64, parent int, name string, fn func()) int {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	sid := len(rp.spans)
	rp.spans = append(rp.spans, span{id, sid, parent, name, since(t0), since(t1)})
	return sid
}

func (rp *replayer) one(id uint64, o op) (replayed, error) {
	w := rp.w
	r := replayed{tmpl: o.tmpl}
	line, err := json.Marshal(server.Request{ID: id, Stmt: o.text})
	if err != nil {
		return r, err
	}
	t0 := time.Now()
	root := len(rp.spans)
	rp.spans = append(rp.spans, span{Stmt: id, ID: root, Parent: -1, Name: o.tmpl.name, Start: since(t0)})
	defer func() { rp.spans[root].End = since(time.Now()) }()

	var req server.Request
	rp.timed(id, root, "server.decode", func() { req = server.ParseRequest(string(line)) })

	switch o.tmpl.kind {
	case kindLoad:
		// What the log manager did inside the commit — the fsync, and a
		// checkpoint when this commit crossed the threshold — is read off
		// the server's histograms and becomes the commit's child span.
		m := w.srv.Metrics()
		wal0 := m.WALFsync.Sum() + m.CheckpointDur.Sum()
		sid := rp.timed(id, root, "catalog.commit", func() { err = w.db.Load(context.Background(), "events", o.chunk) })
		inWAL := m.WALFsync.Sum() + m.CheckpointDur.Sum() - wal0
		end := rp.spans[sid].End
		rp.spans = append(rp.spans, span{id, len(rp.spans), sid, "wal", end - inWAL.Nanoseconds(), end})
		// As the server does for the loading session: rebind the table the
		// commit published, or later lookups plan against a stale one.
		rp.env.BindTable("events", w.table("events"))
		return r, err

	case kindEval:
		var v core.Value
		sid := rp.timed(id, root, "xlang.eval", func() { v, err = xlang.EvalCtx(context.Background(), rp.env, req.Stmt) })
		if err != nil {
			return r, err
		}
		if got := fmt.Sprint(v); got != o.result {
			return r, fmt.Errorf("evaluated to %s, want %s", got, o.result)
		}
		rp.timed(id, sid, "algebra."+o.tmpl.name, func() { v = o.tmpl.direct(w, o) })
		if got := fmt.Sprint(v); got != o.result {
			return r, fmt.Errorf("direct algebra call gave %s, want %s", got, o.result)
		}
		return r, nil
	}

	var rt catalog.ReadTxn
	rp.timed(id, root, "catalog.begin_read", func() { rt = w.db.BeginRead() })
	defer rt.View.Release()
	rp.env.BindPlanCatalog(func() *plan.Catalog { return rt.Snap })

	var q *xlang.Query
	sid := rp.timed(id, root, "xlang.compile", func() { q, err = xlang.CompileQuery(rp.env, req.Stmt) })
	if err != nil {
		return r, err
	}
	// The optimiser's share of compile: the same rewrite pipeline over the
	// template's hand-built, un-optimised plan.
	hand := o.tmpl.node(w, o)
	rp.timed(id, sid, "plan.optimize", func() { plan.ChooseDOP(plan.OptimizeCatalog(hand, rt.Snap)) })

	var tree exec.Operator
	rp.timed(id, root, "plan.lower", func() { tree, err = plan.CompileDOP(q.Node, q.DOP()) })
	if err != nil {
		return r, err
	}
	ctx := store.WithView(context.Background(), rt.View)
	rp.timed(id, root, "exec.stream", func() {
		err = exec.Stream(ctx, tree, func(rows []table.Row) error { r.out += len(rows); return nil })
	})
	if err != nil {
		return r, err
	}
	if r.out != o.rows {
		return r, fmt.Errorf("streamed %d rows, want %d", r.out, o.rows)
	}
	r.dop = q.DOP()
	r.indexPath = strings.Contains(plan.Explain(q.Node), "indexscan")
	r.opSelf = map[string]time.Duration{}
	exec.Walk(tree, func(op exec.Operator, _ int) {
		st := op.Stats()
		self := st.Ns
		for _, c := range op.Children() {
			self -= c.Stats().Ns
		}
		// Parallel children overlap, so their summed time can exceed the parent's.
		if self < 0 {
			self = 0
		}
		r.opSelf[opClass(op)] += time.Duration(self)
		r.held += st.HeldRows
		switch op.(type) {
		case *exec.Scan, *exec.MorselScan, *exec.IndexScan:
			r.scanned += st.RowsIn
		}
	})
	return r, nil
}

// rangeIndexShare plans n ranges of rangeRows rows whose starts are
// uniform over all of orders.id — the timed loop keeps to the first
// third, see drawOrderRange — and returns the share the planner serves
// through the btree. Nothing is executed.
func (rp *replayer) rangeIndexShare(n int) (float64, error) {
	rt := rp.w.db.BeginRead()
	defer rt.View.Release()
	rp.env.BindPlanCatalog(func() *plan.Catalog { return rt.Snap })
	r := rng(rp.w.seed, -3)
	indexed := 0
	for i := 0; i < n; i++ {
		q, err := xlang.CompileQuery(rp.env, orderRangeStmt(int64(r.Intn(rp.w.sp.orders-rangeRows))))
		if err != nil {
			return 0, err
		}
		if strings.Contains(plan.Explain(q.Node), "indexscan") {
			indexed++
		}
	}
	return float64(indexed) / float64(n), nil
}

// opClass maps an operator onto the exec.*_us metric it is charged to.
func opClass(op exec.Operator) string {
	switch op.(type) {
	case *exec.Scan, *exec.MorselScan:
		return "scan"
	case *exec.IndexScan:
		return "indexscan"
	case *exec.HashJoin, *exec.HashBuild, *exec.ProbeJoin:
		return "hashjoin"
	case *exec.GroupAgg, *exec.ParallelGroupAgg:
		return "groupagg"
	case *exec.Gather:
		return "gather"
	default: // Stage (restrict/project), Sort, Limit, Rename
		return "stage"
	}
}

// metrics reduces the replay to the layer timings: a pipeline stage is
// the median self time of its spans, the per-operator split and the
// counts are means over the query statements.
func (rp *replayer) metrics() vals {
	out := vals{}
	selfNs := map[string][]float64{} // span name → self times
	for i, s := range rp.spans {
		if s.Parent >= 0 {
			selfNs[s.Name] = append(selfNs[s.Name], float64(rp.self[i]))
		}
	}
	stage := func(metric, span string, unitNs float64) {
		if vs := selfNs[span]; len(vs) > 0 {
			sort.Float64s(vs)
			out[metric] = val{percentile(vs, 50) / unitNs, len(vs)}
		}
	}
	stage("server.decode_us", "server.decode", 1e3)
	stage("xlang.compile_us", "xlang.compile", 1e3)
	stage("xlang.eval_us", "xlang.eval", 1e3)
	stage("plan.optimize_us", "plan.optimize", 1e3)
	stage("plan.lower_us", "plan.lower", 1e3)
	stage("exec.stream_us", "exec.stream", 1e3)
	stage("catalog.commit_us", "catalog.commit", 1e3)
	stage("catalog.begin_read_ns", "catalog.begin_read", 1)
	for _, name := range []string{"image", "compose", "union", "relprod"} {
		stage("algebra."+name+"_us", "algebra."+name, 1e3)
	}
	stage("algebra.tclose_ms", "algebra.tclose", 1e6)

	var dop, index, scanned, rowsOut []float64
	held := 0
	ops := map[string][]float64{}
	for i := range rp.done {
		r := &rp.done[i]
		if r.tmpl.kind != kindQuery {
			continue
		}
		dop = append(dop, float64(r.dop))
		ix := 0.0
		if r.indexPath {
			ix = 1
		}
		index = append(index, ix)
		scanned = append(scanned, float64(r.scanned))
		rowsOut = append(rowsOut, float64(r.out))
		held = max(held, r.held)
		for _, class := range []string{"scan", "stage", "hashjoin", "groupagg", "indexscan", "gather"} {
			ops[class] = append(ops[class], us(r.opSelf[class]))
		}
	}
	if n := len(dop); n > 0 {
		out["plan.dop_mean"] = val{mean(dop), n}
		out["plan.index_path_share"] = val{mean(index), n}
		out["exec.rows_scanned_per_row_out"] = val{ratio(mean(scanned), mean(rowsOut)), n}
		out["exec.peak_held_rows"] = val{float64(held), n}
		for class, vs := range ops {
			out["exec."+class+"_us"] = val{mean(vs), n}
		}
	}
	return out
}

// layerSelf is the mean self time per replayed statement of every layer
// the replay can tell apart, in µs: the layer of a span is its name up to
// the dot. exec contains the table, index and store work its operators
// do: those are not separable from outside.
func (rp *replayer) layerSelf() map[string]float64 {
	out := map[string]float64{}
	for i, s := range rp.spans {
		if s.Parent >= 0 {
			layer, _, _ := strings.Cut(s.Name, ".")
			out[layer] += us(rp.self[i]) / float64(len(rp.done))
		}
	}
	return out
}

// pipelineP50 is the median, over the replayed statements, of the time
// the replayed calls took in total: the self times below the root.
func (rp *replayer) pipelineP50() time.Duration {
	total := map[uint64]float64{}
	for i, s := range rp.spans {
		if s.Parent >= 0 {
			total[s.Stmt] += float64(rp.self[i])
		}
	}
	vs := make([]float64, 0, len(total))
	for _, v := range total {
		vs = append(vs, v)
	}
	sort.Float64s(vs)
	return time.Duration(percentile(vs, 50))
}
