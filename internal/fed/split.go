package fed

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"sync"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/plan"
	"xst/internal/server"
	"xst/internal/table"
)

// The splitter walks the optimized single-node plan bottom-up, growing
// per-site fragments as long as operators can be decompiled into the
// query grammar, and cutting over to coordinator-side plan nodes (with
// plan.Source leaves standing in for the scattered fragments) at the
// first operator that cannot. The rewrites are the classic distributed
// forms of the paper's algebraic identities: restriction and projection
// commute with the partition union, aggregation decomposes into
// per-site partials merged at the coordinator, and equi-joins pick a
// shipping discipline by byte cost.

type splitter struct {
	c *Coordinator
	// strategies records each distributed join's chosen strategy, in
	// plan order (for EXPLAIN surfacing and the cost-pinning tests).
	strategies []Strategy
	// fanout tracks the widest scatter, pricing admission at the front
	// server.
	fanout int
}

// piece is either a still-growing fragment or a finished coordinator
// subtree.
type piece struct {
	frag *fragment
	node plan.Node
}

// nodeOf finalizes a piece into a plan node, scattering a live
// fragment.
func (s *splitter) nodeOf(p piece) plan.Node {
	if p.frag != nil {
		return s.source(p.frag)
	}
	return p.node
}

// source wraps a fragment as a plan.Source leaf: compiling the plan
// builds one Remote per (pruned) site under a Gather exchange.
func (s *splitter) source(f *fragment) plan.Node {
	return s.sourceFq(f, f.sch, staticFrag(f.render()), f.render(), f.estRows())
}

// sourceFq is source with an explicit per-attempt fragment function,
// declared schema and label — the join strategies use it to ship
// scratch tables before the fragment text runs.
func (s *splitter) sourceFq(f *fragment, sch table.Schema, fq fragFunc, label string, rows float64) plan.Node {
	c := s.c
	sites := f.sites(c)
	if len(sites) > s.fanout {
		s.fanout = len(sites)
	}
	return &plan.Source{
		Sch:   sch,
		Rows:  rows,
		Label: fmt.Sprintf("fedscatter[%d sites: %s]", len(sites), label),
		New: func() (exec.Operator, error) {
			workers := make([]exec.Operator, len(sites))
			for i, st := range sites {
				workers[i] = c.remote(st, sch, fq, label)
			}
			if len(workers) == 1 {
				return workers[0], nil
			}
			return exec.NewGather(workers), nil
		},
	}
}

// staticFrag is the fragFunc of a self-contained fragment: no scratch
// tables, same text every attempt.
func staticFrag(stmt string) fragFunc {
	return func(ctx context.Context, st *site, conn *siteConn, attempt int) (server.Request, error) {
		return server.Request{Stmt: stmt}, nil
	}
}

// split compiles the optimized plan into its federated form.
func (s *splitter) split(n plan.Node) plan.Node {
	return s.nodeOf(s.rec(n))
}

func (s *splitter) rec(n plan.Node) piece {
	switch x := n.(type) {
	case *plan.Scan:
		name, ok := s.c.stubs[x.Table]
		if !ok {
			// Not a federated table (cannot happen through Compile, which
			// binds only stubs); leave the scan local.
			return piece{node: x}
		}
		return piece{frag: newFragment(name, s.c.tables[name], x.Schema())}

	case *plan.Select:
		p := s.rec(x.Child)
		// Restriction pushes through the partition union whenever its
		// conjuncts render; filtering before a pushed distinct would be
		// fine too, but the optimizer never builds that shape.
		if p.frag != nil && p.frag.plain() {
			if texts, cmps, ok := renderPred(x.Pred); ok {
				p.frag.where = append(p.frag.where, texts...)
				p.frag.preds = append(p.frag.preds, cmps...)
				return p
			}
		}
		return piece{node: &plan.Select{Child: s.nodeOf(p), Pred: x.Pred}}

	case *plan.Project:
		p := s.rec(x.Child)
		// Projection composes with an earlier pushed projection (names
		// are only dropped, never renamed) but must stay above a pushed
		// group/limit/distinct.
		if p.frag != nil && p.frag.plain() && renderableIdents(x.Cols) {
			p.frag.cols = append([]string(nil), x.Cols...)
			p.frag.sch = table.Schema{Name: p.frag.sch.Name, Cols: p.frag.cols}
			return p
		}
		return piece{node: &plan.Project{Child: s.nodeOf(p), Cols: x.Cols}}

	case *plan.Distinct:
		p := s.rec(x.Child)
		// Per-site distinct shrinks shipping; the coordinator re-distincts
		// the union (sites may share values).
		if p.frag != nil && p.frag.plain() {
			p.frag.distinct = true
			return piece{node: &plan.Distinct{Child: s.source(p.frag)}}
		}
		return piece{node: &plan.Distinct{Child: s.nodeOf(p)}}

	case *plan.GroupBy:
		p := s.rec(x.Child)
		if p.frag != nil && p.frag.plain() &&
			renderableIdent(x.Key) && renderableAggs(x.Key, x.Aggs) {
			return piece{node: s.partialAgg(p.frag, x)}
		}
		return piece{node: &plan.GroupBy{Child: s.nodeOf(p), Key: x.Key, Aggs: x.Aggs, Groups: x.Groups, Rows: x.Rows}}

	case *plan.Sort:
		// Order is a coordinator concern: sites ship unordered partitions.
		p := s.rec(x.Child)
		return piece{node: &plan.Sort{Child: s.nodeOf(p), Col: x.Col, Desc: x.Desc}}

	case *plan.Limit:
		p := s.rec(x.Child)
		// Each site needs at most N rows; the coordinator re-limits the
		// union. Not pushed below a pushed group (partials must be
		// complete).
		if p.frag != nil && p.frag.groupKey == "" {
			if p.frag.limit < 0 || x.N < p.frag.limit {
				p.frag.limit = x.N
			}
			return piece{node: &plan.Limit{Child: s.source(p.frag), N: x.N}}
		}
		return piece{node: &plan.Limit{Child: s.nodeOf(p), N: x.N}}

	case *plan.Join:
		return s.join(x)

	default:
		return piece{node: n}
	}
}

// partialAgg pushes a GroupBy as per-site partial aggregation: sites
// group their partitions, the coordinator merges the partials
// (count→sum of counts, sum→sum, min→min, max→max) and a Rename
// restores the user-visible column names over the merge's partial-form
// ones.
func (s *splitter) partialAgg(f *fragment, g *plan.GroupBy) plan.Node {
	f.groupKey = g.Key
	f.aggs = g.Aggs
	f.cols = nil
	partialCols := []string{g.Key}
	finalCols := []string{g.Key}
	merge := make([]plan.AggSpec, len(g.Aggs))
	for i, a := range g.Aggs {
		name := a.String()
		partialCols = append(partialCols, name)
		finalCols = append(finalCols, name)
		switch a.Kind {
		case exec.AggCount:
			merge[i] = plan.AggSpec{Kind: exec.AggSum, Col: name}
		default:
			merge[i] = plan.AggSpec{Kind: a.Kind, Col: name}
		}
	}
	f.sch = table.Schema{Name: f.sch.Name, Cols: partialCols}
	return &plan.Rename{
		Child: &plan.GroupBy{Child: s.source(f), Key: g.Key, Aggs: merge, Groups: g.Groups, Rows: g.Rows},
		Cols:  finalCols,
	}
}

// join lowers an equi-join between two plain fragments under a
// cost-chosen shipping strategy; anything else falls back to a
// coordinator-side join over gathered inputs (ship-all).
func (s *splitter) join(x *plan.Join) piece {
	lp, rp := s.rec(x.Left), s.rec(x.Right)
	lf, rf := lp.frag, rp.frag
	if lf == nil || rf == nil || !lf.plain() || !rf.plain() ||
		!renderableIdent(x.LeftCol) || !renderableIdent(x.RightCol) {
		return piece{node: &plan.Join{
			Left: s.nodeOf(lp), Right: s.nodeOf(rp),
			LeftCol: x.LeftCol, RightCol: x.RightCol,
		}}
	}
	// Site-side join strategies splice the two column lists together in
	// one site query, so they need disjoint plain names; colliding
	// schemas would come back qualified differently than the
	// coordinator's table.JoinSchema qualifies them.
	disjoint := disjointCols(lf.outCols(), rf.outCols()) &&
		renderableIdents(lf.outCols()) && renderableIdents(rf.outCols())
	in := s.costInputs(lf, rf, x.LeftCol, x.RightCol, disjoint)
	strat := ChooseStrategy(in)
	if forced, ok := forcedStrategy(s.c.cfg.ForceStrategy); ok {
		strat = forced
	}
	if !disjoint && (strat == Broadcast || strat == CoLocated) {
		strat = ShipAll
	}
	// CoLocated is only sound when both sides really are hash-partitioned
	// on the join key (guards a forced override) and single-table (the
	// merged fragment carries one join clause per strategy decision).
	if strat == CoLocated && !in.CoPartitioned {
		strat = ShipAll
	}
	// SemiJoin renders the right side's columns around the shipped key
	// scratch table; unrenderable names fall back to gathering both sides.
	if strat == SemiJoin && !renderableIdents(rf.outCols()) {
		strat = ShipAll
	}
	s.strategies = append(s.strategies, strat)
	switch strat {
	case CoLocated:
		return s.colocated(lf, rf, x)
	case Broadcast:
		return s.broadcast(lf, rf, x)
	case SemiJoin:
		return s.semijoin(lf, rf, x)
	default:
		return piece{node: &plan.Join{
			Left: s.source(lf), Right: s.source(rf),
			LeftCol: x.LeftCol, RightCol: x.RightCol,
		}}
	}
}

// outCols is the fragment's current output column list.
func (f *fragment) outCols() []string {
	if f.cols != nil {
		return f.cols
	}
	return f.sch.Cols
}

func disjointCols(a, b []string) bool {
	seen := make(map[string]bool, len(a))
	for _, c := range a {
		seen[c] = true
	}
	for _, c := range b {
		if seen[c] {
			return false
		}
	}
	return true
}

func forcedStrategy(s string) (Strategy, bool) {
	switch s {
	case "shipall":
		return ShipAll, true
	case "broadcast":
		return Broadcast, true
	case "semijoin":
		return SemiJoin, true
	case "colocated":
		return CoLocated, true
	}
	return 0, false
}

// costInputs lifts the fragment statistics into the byte-cost model.
func (s *splitter) costInputs(lf, rf *fragment, lcol, rcol string, disjoint bool) CostInputs {
	in := CostInputs{
		LeftRows:        lf.meta.Rows(),
		RightRows:       rf.meta.Rows(),
		LeftRowBytes:    rowBytesOr(lf.meta.RowBytes),
		RightRowBytes:   rowBytesOr(rf.meta.RowBytes),
		KeyBytes:        9, // tag byte + up to 8 payload bytes, the atom codec's bound
		LeftSelectivity: lf.selectivity(),
		Sites:           len(s.c.sites),
	}
	// Fold the right side's own restriction into its effective size.
	in.RightRows = int(float64(in.RightRows) * rf.selectivity())
	// SemiJoin ships each distinct left key at most once; analyzed
	// sites publish the exact count.
	in.LeftKeyDistinct = lf.distinctOf(lcol)
	// Equi-join cardinality: |L⋈R| ≈ |L|·|R| / max(d(L.k), d(R.k)) when
	// the key's distinct counts are known; otherwise the System-R
	// fallback of per-key uniqueness on the larger side, which reduces
	// to min(|L|,|R|).
	l, r := lf.estRows(), rf.estRows()
	if d := max(in.LeftKeyDistinct, rf.distinctOf(rcol)); d > 0 {
		in.JoinRows = int(l * r / float64(d))
	} else if l < r {
		in.JoinRows = int(l)
	} else {
		in.JoinRows = int(r)
	}
	in.CoPartitioned = disjoint &&
		len(lf.joins) == 0 && len(rf.joins) == 0 &&
		hashPartitionedOn(lf.meta, lcol) && hashPartitionedOn(rf.meta, rcol)
	return in
}

func rowBytesOr(n int) int {
	if n <= 0 {
		return 16
	}
	return n
}

func hashPartitionedOn(m *TableMeta, col string) bool {
	return m.Part != nil && m.Part.Kind == "hash" && m.Part.Col == col
}

// colocated merges both sides into one per-site joined fragment: both
// tables are hash-partitioned on the join key, so matching rows are
// always on the same site and no rows ship at all (beyond results).
func (s *splitter) colocated(lf, rf *fragment, x *plan.Join) piece {
	sch := table.JoinSchema(lf.outSchema(), rf.outSchema())
	f := &fragment{
		table:     lf.table,
		meta:      lf.meta,
		joins:     []fragJoin{{table: rf.table, leftCol: x.LeftCol, rightCol: x.RightCol}},
		joinMetas: []*TableMeta{rf.meta},
		where:     append(append([]string(nil), lf.where...), rf.where...),
		preds:     append(append([]plan.Cmp(nil), lf.preds...), rf.preds...),
		cols:      append(append([]string(nil), lf.outCols()...), rf.outCols()...),
		sch:       sch,
		limit:     -1,
	}
	return piece{frag: f}
}

// outSchema is the fragment's current output schema.
func (f *fragment) outSchema() table.Schema {
	if f.cols == nil {
		return f.sch
	}
	return table.Schema{Name: f.sch.Name, Cols: f.cols}
}

// broadcast gathers the (small) right side once at the coordinator and
// ships a copy to every left site as a scratch table, turning the join
// into a site-local one over the left partitions.
func (s *splitter) broadcast(lf, rf *fragment, x *plan.Join) piece {
	cache := newGatherCache(s, rf)
	sch := table.JoinSchema(lf.outSchema(), rf.outSchema())
	joined := lf.clone()
	joined.cols = append(append([]string(nil), lf.outCols()...), rf.outCols()...)
	joined.sch = sch
	rcols := rf.outCols()
	fq := func(ctx context.Context, st *site, conn *siteConn, attempt int) (server.Request, error) {
		rows, err := cache.rows(ctx)
		if err != nil {
			return server.Request{}, err
		}
		scratch := s.c.scratchName()
		if err := s.c.loadTable(ctx, st, conn, scratch, rcols, rows); err != nil {
			return server.Request{}, err
		}
		g := joined.clone()
		g.joins = append(g.joins, fragJoin{table: scratch, leftCol: x.LeftCol, rightCol: x.RightCol})
		return server.Request{Stmt: g.render()}, nil
	}
	label := fmt.Sprintf("broadcast %s to %s", rf.table, lf.table)
	rows := lf.estRows()
	if r := rf.estRows(); r > rows {
		rows = r
	}
	return piece{node: s.sourceFq(lf, sch, fq, label, rows)}
}

// semijoin gathers the (small, filtered) left side at the coordinator,
// ships only its distinct join keys to the right sites, and gathers the
// matching right rows for a coordinator-side join — the
// semijoin-reduced shuffle over real sockets.
func (s *splitter) semijoin(lf, rf *fragment, x *plan.Join) piece {
	cache := newGatherCache(s, lf)
	li := lf.outSchema().Col(x.LeftCol)
	keyCol := freshName("k", rf.outCols())
	rcols := rf.outCols()
	fq := func(ctx context.Context, st *site, conn *siteConn, attempt int) (server.Request, error) {
		keys, err := cache.distinctKeys(ctx, li)
		if err != nil {
			return server.Request{}, err
		}
		scratch := s.c.scratchName()
		if err := s.c.loadTable(ctx, st, conn, scratch, []string{keyCol}, keys); err != nil {
			return server.Request{}, err
		}
		g := rf.clone()
		g.joins = append(g.joins, fragJoin{table: scratch, leftCol: x.RightCol, rightCol: keyCol})
		g.cols = append([]string(nil), rcols...) // drop the shipped key column
		return server.Request{Stmt: g.render()}, nil
	}
	leftSrc := &plan.Source{
		Sch:   lf.outSchema(),
		Rows:  lf.estRows(),
		Label: fmt.Sprintf("fedgather[%s]", lf.render()),
		New: func() (exec.Operator, error) {
			sch := lf.outSchema()
			return exec.NewMaterialized("fedgather["+sch.Name+"]", sch, cache.rows), nil
		},
	}
	reduced := lf.estRows()
	if r := rf.estRows(); r < reduced {
		reduced = r
	}
	label := fmt.Sprintf("semijoin %s keys into %s", lf.table, rf.table)
	rightSrc := s.sourceFq(rf, rf.outSchema(), fq, label, reduced)
	return piece{node: &plan.Join{
		Left: leftSrc, Right: rightSrc,
		LeftCol: x.LeftCol, RightCol: x.RightCol,
	}}
}

// freshName returns base, suffixed if needed to miss every name in
// taken.
func freshName(base string, taken []string) string {
	name := base
	for i := 2; ; i++ {
		clash := false
		for _, t := range taken {
			if t == name {
				clash = true
				break
			}
		}
		if !clash {
			return name
		}
		name = fmt.Sprintf("%s%d", base, i)
	}
}

func (c *Coordinator) scratchName() string {
	return fmt.Sprintf("__f%d", c.seq.Add(1))
}

// loadTable ships rows into a session-private scratch table on one
// site, chunked to stay far below the protocol's line-size bound.
func (c *Coordinator) loadTable(ctx context.Context, st *site, conn *siteConn, name string, cols []string, rows []table.Row) error {
	const chunk = 256
	var enc []byte
	for off := 0; off < len(rows) || off == 0; off += chunk {
		end := off + chunk
		if end > len(rows) {
			end = len(rows)
		}
		req := struct {
			Table string   `json:"table"`
			Cols  []string `json:"cols"`
			Rows  []string `json:"rows"`
		}{Table: name, Cols: cols}
		for _, r := range rows[off:end] {
			if err := ctx.Err(); err != nil {
				return err
			}
			enc = table.EncodeRow(enc[:0], r)
			req.Rows = append(req.Rows, base64.StdEncoding.EncodeToString(enc))
		}
		payload, err := json.Marshal(req)
		if err != nil {
			return err
		}
		if _, err := c.admin(ctx, st, conn, server.Request{Stmt: ".load " + string(payload)}); err != nil {
			return err
		}
		c.countRows(st, end-off)
		if len(rows) == 0 {
			break
		}
	}
	return nil
}

// gatherCache materializes one fragment at the coordinator exactly once
// per query, shared by the per-site workers that ship it (broadcast
// build sides, semijoin key sets). The first caller gathers under its
// context; later callers and retries replay the cached result (or its
// error — a failed gather is terminal for the query, so replaying the
// error fails fast instead of re-gathering per worker).
type gatherCache struct {
	newOp func() (exec.Operator, error)

	// ready is closed once rowsv/err are final. The gatherer is the only
	// writer and writes strictly before the close, so readers that have
	// seen ready need no lock.
	ready chan struct{}
	rowsv []table.Row
	err   error

	mu      sync.Mutex
	started bool
	keysd   bool
	keysv   []table.Row
}

func newGatherCache(s *splitter, f *fragment) *gatherCache {
	src := s.source(f).(*plan.Source)
	return &gatherCache{newOp: src.New, ready: make(chan struct{})}
}

// rows returns the gathered fragment rows, gathering on first call. The
// mutex is never held across the gather itself — the first caller
// collects under its own context and signals completion by closing
// ready, while every other caller waits on ready or its own ctx. A
// wedged gather therefore cannot strand a waiter whose deadline has
// already expired.
func (g *gatherCache) rows(ctx context.Context) ([]table.Row, error) {
	g.mu.Lock()
	if !g.started {
		g.started = true
		g.mu.Unlock()
		op, err := g.newOp()
		if err != nil {
			g.err = err
		} else {
			g.rowsv, g.err = exec.Collect(ctx, op)
		}
		close(g.ready)
	} else {
		g.mu.Unlock()
	}
	select {
	case <-g.ready:
		return g.rowsv, g.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// distinctKeys projects the cached rows to their distinct values at
// column idx, one single-column row per key, in first-seen order.
func (g *gatherCache) distinctKeys(ctx context.Context, idx int) ([]table.Row, error) {
	rows, err := g.rows(ctx)
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.keysd {
		return g.keysv, nil
	}
	seen := core.NewChains(len(rows))
	out := []table.Row{}
keys:
	for _, r := range rows {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		k := r[idx]
		d := core.Digest(k)
		for id := seen.First(d); id >= 0; id = seen.Next(id) {
			if core.Equal(out[id][0], k) {
				continue keys
			}
		}
		seen.Add(d)
		out = append(out, table.Row{k})
	}
	g.keysd = true
	g.keysv = out
	return out, nil
}
