package exec_test

import (
	"context"
	"errors"
	"testing"

	"xst/internal/catalog"
	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/xtest"
)

// Parallel operators must answer what an independent oracle answers at
// every width (order across workers is arbitrary), bound their
// in-flight rows, propagate the first error, and leak no goroutines on
// cancellation or early close.

// TestParallelScanMatchesScan: Scan, and morsel scans gathered at
// widths 1, 2 and 4, stream the rows Table.Scan yields, in batches of at
// most MaxBatchRows.
func TestParallelScanMatchesScan(t *testing.T) {
	pool := newPool()
	tbl := makeUsers(t, pool, 3000)
	want := tableRows(t, tbl)
	check := func(op exec.Operator) {
		t.Helper()
		var got []table.Row
		err := exec.Stream(context.Background(), op, func(rows []table.Row) error {
			if len(rows) == 0 || len(rows) > exec.MaxBatchRows {
				t.Fatalf("%s: batch of %d rows (max %d)", op, len(rows), exec.MaxBatchRows)
			}
			for _, r := range rows {
				got = append(got, r.Clone())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, got, want)
	}
	check(exec.NewScan(tbl, nil))
	for _, workers := range []int{1, 2, 4} {
		g := exec.NewGather(morselScans(tbl, workers))
		if g.Workers() != workers {
			t.Fatalf("Workers() = %d, want %d", g.Workers(), workers)
		}
		check(g)
	}
}

// TestTreeRunsTwice: a tree drained twice answers the same rows both
// times — its scans rewind, and its builds, aggregates and distinct
// stages start afresh.
func TestTreeRunsTwice(t *testing.T) {
	pool := newPool()
	users := makeUsers(t, pool, 3000)
	orders := makeOrders(t, pool, 3000, 60)
	count := []exec.Agg{{Kind: exec.AggCount}}
	for _, c := range []struct {
		name string
		op   exec.Operator
		want int
	}{
		{"scan", exec.NewScan(users, nil), 3000},
		{"gather x2", exec.NewGather(morselScans(users, 2)), 3000},
		{"hashjoin", exec.NewHashJoin(exec.NewScan(orders, nil), exec.NewScan(users, nil), 0, 0, 0), 3000},
		{"groupagg", exec.NewGroupAgg(exec.NewScan(users, nil), 1, 0, count...), 3},
		{"parallelgroupagg x2", exec.NewParallelGroupAgg(morselScans(users, 2), nil, 1, 0, 0, count...), 3},
		{"distinct", exec.NewStage(&exec.Distinct{}, exec.NewScan(users, nil)), 3000},
	} {
		for run := 1; run <= 2; run++ {
			n, err := exec.Count(context.Background(), c.op)
			if err != nil {
				t.Fatalf("%s run %d: %v", c.name, run, err)
			}
			if n != c.want {
				t.Fatalf("%s run %d: %d rows, want %d", c.name, run, n, c.want)
			}
		}
	}
}

// TestTreeRunsUnderEachView runs the trees of a snapshot, a later one
// and the first again, each twice: a tree reads its table version, so it
// counts the rows committed when its snapshot was taken, though both
// versions end on the same page.
func TestTreeRunsUnderEachView(t *testing.T) {
	db, err := catalog.Create(store.NewMemPager(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(table.Schema{Name: "ev", Cols: []string{"b", "i"}}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	load := func(b, n int) *table.Table {
		rows := make([]table.Row, n)
		for i := range rows {
			rows[i] = table.Row{core.Int(int64(b)), core.Int(int64(i))}
		}
		if err := db.Load(ctx, "ev", rows); err != nil {
			t.Fatal(err)
		}
		tab, ok := db.BeginRead().Snap.Table("ev")
		if !ok {
			t.Fatal("snapshot has no table ev")
		}
		return tab
	}
	// Both loads fit one page, so the table's page list is the same in
	// both snapshots and only the page's slot count differs.
	first, second := load(0, 20), load(1, 30)
	trees := func(tab *table.Table) []exec.Operator {
		return []exec.Operator{exec.NewScan(tab, nil), exec.NewGather(morselScans(tab, 2))}
	}
	firstOps, secondOps := trees(first), trees(second)
	for _, run := range []struct {
		ops  []exec.Operator
		want int
	}{{firstOps, 20}, {secondOps, 50}, {firstOps, 20}} {
		for _, op := range run.ops {
			for i := 0; i < 2; i++ {
				n, err := exec.Count(ctx, op)
				if err != nil {
					t.Fatal(err)
				}
				if n != run.want {
					t.Fatalf("%s: %d rows, want %d", op, n, run.want)
				}
			}
		}
	}
}

// TestGatherBoundsInFlightRows: the exchange holds at most one queued
// batch per worker plus one being sent per worker, so the observed peak
// must stay within 2 × workers × MaxBatchRows.
func TestGatherBoundsInFlightRows(t *testing.T) {
	pool := newPool()
	tbl := makeUsers(t, pool, 20000)
	const workers = 4
	g := exec.NewGather(morselScans(tbl, workers))
	n, err := exec.Count(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20000 {
		t.Fatalf("counted %d rows, want 20000", n)
	}
	peak := g.Stats().HeldRows
	if bound := 2 * workers * exec.MaxBatchRows; peak > bound {
		t.Fatalf("gather peak %d rows in flight exceeds bound %d", peak, bound)
	}
	if peak == 0 {
		t.Fatal("gather reported zero peak in-flight rows after streaming 20000")
	}
}

// TestGatherClonesStageBatches runs workers whose roots are Stage
// adapters: Gather must clone their scratch batches
// before they cross goroutines, and the result must still match the
// serial restrict.
func TestGatherClonesStageBatches(t *testing.T) {
	pool := newPool()
	tbl := makeUsers(t, pool, 2000)
	boston := func(r table.Row) bool { return core.Equal(r[1], core.Str("boston")) }

	var want []table.Row
	for _, r := range tableRows(t, tbl) {
		if boston(r) {
			want = append(want, r)
		}
	}

	src := tbl.NewMorselSource()
	workers := make([]exec.Operator, 3)
	for i := range workers {
		workers[i] = exec.NewStage(
			&exec.Restrict{Filter: exec.RowPred(boston), Name: "city=boston"}, exec.NewMorselScan(src, nil))
	}
	got, err := exec.Collect(context.Background(), exec.NewGather(workers))
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, got, want)
}

// parallelJoin wires the partitioned join by hand: build workers feed a
// shared HashBuild (a Gather aux dependency), probe workers wrap
// ProbeJoins around it.
func parallelJoin(t *testing.T, users, orders *table.Table, workers int) (*exec.Gather, *exec.HashBuild) {
	t.Helper()
	usrc := users.NewMorselSource()
	osrc := orders.NewMorselSource()
	bw := make([]exec.Operator, workers)
	for i := range bw {
		bw[i] = exec.NewMorselScan(usrc, nil)
	}
	hb := exec.NewHashBuild(bw, 0, 0) // users.id
	pw := make([]exec.Operator, workers)
	for i := range pw {
		pw[i] = exec.NewProbeJoin(exec.NewMorselScan(osrc, nil), hb, 0) // orders.uid
	}
	return exec.NewGather(pw, hb), hb
}

// TestParallelJoinMatchesHashJoin: HashJoin, and the partitioned join
// at widths 1, 2 and 4, answer what refHashJoin answers, and hold the
// build side once.
func TestParallelJoinMatchesHashJoin(t *testing.T) {
	pool := newPool()
	users := makeUsers(t, pool, 60)
	orders := makeOrders(t, pool, 3000, 60)
	want := refHashJoin(tableRows(t, orders), tableRows(t, users), 0, 0, 1)
	check := func(op exec.Operator, held func() int) {
		t.Helper()
		got, err := exec.Collect(context.Background(), op)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, got, want)
		if h := held(); h != 60 {
			t.Fatalf("%s held %d rows, want the 60-row build side", op, h)
		}
	}
	j := exec.NewHashJoin(exec.NewScan(orders, nil), exec.NewScan(users, nil), 0, 0, 0)
	check(j, func() int { return j.Stats().HeldRows })
	for _, workers := range []int{1, 2, 4} {
		g, hb := parallelJoin(t, users, orders, workers)
		check(g, func() int { return hb.Stats().HeldRows })
	}
}

// TestParallelGroupAggMatchesGroupAgg: GroupAgg, and the partial
// aggregate at widths 1, 2 and 4, answer what refGroupAgg answers.
func TestParallelGroupAggMatchesGroupAgg(t *testing.T) {
	pool := newPool()
	tbl := makeUsers(t, pool, 999)
	aggs := []exec.Agg{{Kind: exec.AggCount}, {Kind: exec.AggSum, Col: 2}, {Kind: exec.AggMin, Col: 2}, {Kind: exec.AggMax, Col: 2}}
	want := refGroupAgg([][]table.Row{tableRows(t, tbl)}, 1, 2)
	check := func(op exec.Operator) {
		t.Helper()
		got, err := exec.Collect(context.Background(), op)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, got, want)
		if held := op.Stats().HeldRows; held != 3 {
			t.Fatalf("%s held %d groups, want 3", op, held)
		}
		if cols := op.OutSchema().Cols; len(cols) != 5 {
			t.Fatalf("%s: schema %v, want key and four aggregates", op, cols)
		}
	}
	check(exec.NewGroupAgg(exec.NewScan(tbl, nil), 1, 0, aggs...))
	for _, workers := range []int{1, 2, 4} {
		check(exec.NewParallelGroupAgg(morselScans(tbl, workers), nil, 1, 0, 0, aggs...))
	}
}

func TestProbeBeforeBuildOpenErrors(t *testing.T) {
	pool := newPool()
	users := makeUsers(t, pool, 30)
	orders := makeOrders(t, pool, 30, 30)
	hb := exec.NewHashBuild([]exec.Operator{exec.NewScan(users, nil)}, 0, 0)
	pj := exec.NewProbeJoin(exec.NewScan(orders, nil), hb, 0)
	if err := pj.Open(context.Background()); err == nil {
		pj.Close()
		t.Fatal("ProbeJoin.Open succeeded against an unopened HashBuild")
	}
}

func TestGatherNextBeforeOpenErrors(t *testing.T) {
	g := exec.NewGather(morselScans(makeUsers(t, newPool(), 10), 2))
	if _, err := g.Next(); err == nil {
		t.Fatal("Next before Open should error")
	}
}

// failOp is an error-injecting worker: it emits `after` single-row
// batches, then fails.
type failOp struct {
	after int
	err   error
	n     int
	open  bool
}

func (f *failOp) Open(ctx context.Context) error { f.n = 0; f.open = true; return ctx.Err() }
func (f *failOp) Next() (*table.Batch, error) {
	if !f.open {
		return nil, errors.New("failop: next before open")
	}
	if f.n >= f.after {
		return nil, f.err
	}
	f.n++
	return table.BatchOf([]table.Row{{core.Int(f.n), core.Str("fail"), core.Int(0)}}, 3), nil
}
func (f *failOp) Close() error { f.open = false; return nil }
func (f *failOp) OutSchema() table.Schema {
	return table.Schema{Name: "fail", Cols: []string{"id", "city", "score"}}
}
func (f *failOp) Stats() exec.OpStats       { return exec.OpStats{} }
func (f *failOp) Children() []exec.Operator { return nil }
func (f *failOp) String() string            { return "failop" }

// TestGatherFirstErrorWins injects a failing worker beside healthy scan
// workers over a large table: the injected error must surface (not the
// siblings' cancellation), and every worker goroutine must exit.
func TestGatherFirstErrorWins(t *testing.T) {
	pool := newPool()
	tbl := makeUsers(t, pool, 20000)
	boom := errors.New("boom")
	xtest.AssertErrorAborts(t, boom, func(ctx context.Context) error {
		src := tbl.NewMorselSource()
		workers := []exec.Operator{
			exec.NewMorselScan(src, nil),
			exec.NewMorselScan(src, nil),
			exec.NewMorselScan(src, nil),
			&failOp{after: 1, err: boom},
		}
		_, err := exec.Count(ctx, exec.NewGather(workers))
		return err
	})
}

// TestParallelGroupAggFirstErrorWins: same injection through the
// partial-aggregate fan-out.
func TestParallelGroupAggFirstErrorWins(t *testing.T) {
	pool := newPool()
	tbl := makeUsers(t, pool, 20000)
	boom := errors.New("boom")
	xtest.AssertErrorAborts(t, boom, func(ctx context.Context) error {
		src := tbl.NewMorselSource()
		workers := []exec.Operator{
			exec.NewMorselScan(src, nil),
			exec.NewMorselScan(src, nil),
			&failOp{after: 1, err: boom},
		}
		_, err := exec.Count(ctx, exec.NewParallelGroupAgg(workers, nil, 1, 0, 0, exec.Agg{Kind: exec.AggCount}))
		return err
	})
}

func TestParallelScanCancel(t *testing.T) {
	pool := newPool()
	tbl := makeUsers(t, pool, 8000)
	xtest.AssertCancelAborts(t, 3, func(ctx context.Context) error {
		g := exec.NewGather(morselScans(tbl, 4))
		_, err := exec.Count(ctx, g)
		return err
	})
}

func TestParallelJoinCancel(t *testing.T) {
	pool := newPool()
	users := makeUsers(t, pool, 4000)
	orders := makeOrders(t, pool, 8000, 4000)
	xtest.AssertCancelAborts(t, 5, func(ctx context.Context) error {
		g, _ := parallelJoin(t, users, orders, 3)
		_, err := exec.Count(ctx, g)
		return err
	})
}

func TestParallelGroupAggCancel(t *testing.T) {
	pool := newPool()
	tbl := makeUsers(t, pool, 8000)
	xtest.AssertCancelAborts(t, 3, func(ctx context.Context) error {
		src := tbl.NewMorselSource()
		workers := make([]exec.Operator, 4)
		for i := range workers {
			workers[i] = exec.NewMorselScan(src, nil)
		}
		_, err := exec.Count(ctx, exec.NewParallelGroupAgg(workers, nil, 1, 0, 0, exec.Agg{Kind: exec.AggCount}))
		return err
	})
}

// TestGatherEarlyClose abandons the stream after one batch: Close must
// cancel, drain, and join every producer (the goroutine-leak check is
// the assertion).
func TestGatherEarlyClose(t *testing.T) {
	pool := newPool()
	tbl := makeUsers(t, pool, 20000)
	xtest.AssertCancelAborts(t, 1000, func(ctx context.Context) error {
		g := exec.NewGather(morselScans(tbl, 4))
		if err := g.Open(ctx); err != nil {
			g.Close()
			return err
		}
		if _, err := g.Next(); err != nil {
			g.Close()
			return err
		}
		if err := g.Close(); err != nil {
			return err
		}
		return context.Canceled // satisfy the abort-contract assertion
	})
}
