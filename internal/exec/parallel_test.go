package exec_test

import (
	"context"
	"errors"
	"testing"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/table"
	"xst/internal/xtest"
)

// Parallel operators must be multiset-equivalent to their serial
// counterparts (order across workers is arbitrary), bound their
// in-flight rows, propagate the first error, and leak no goroutines on
// cancellation or early close.

func TestParallelScanMatchesScan(t *testing.T) {
	pool := newPool()
	tbl := makeUsers(t, pool, 3000)
	want, err := exec.Collect(context.Background(), exec.NewScan(tbl, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		g := exec.ParallelScan(tbl, workers)
		if g.Workers() != workers {
			t.Fatalf("Workers() = %d, want %d", g.Workers(), workers)
		}
		var got []table.Row
		err = exec.Stream(context.Background(), g, func(rows []table.Row) error {
			if len(rows) == 0 || len(rows) > exec.MaxBatchRows {
				t.Fatalf("gather batch of %d rows (max %d)", len(rows), exec.MaxBatchRows)
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
}

// TestGatherBoundsInFlightRows: the exchange holds at most one queued
// batch per worker plus one being sent per worker, so the observed peak
// must stay within 2 × workers × MaxBatchRows.
func TestGatherBoundsInFlightRows(t *testing.T) {
	pool := newPool()
	tbl := makeUsers(t, pool, 20000)
	const workers = 4
	g := exec.ParallelScan(tbl, workers)
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
// adapters (not Retainers): Gather must clone their scratch batches
// before they cross goroutines, and the result must still match the
// serial restrict.
func TestGatherClonesStageBatches(t *testing.T) {
	pool := newPool()
	tbl := makeUsers(t, pool, 2000)
	boston := func(r table.Row) bool { return core.Equal(r[1], core.Str("boston")) }

	want, err := exec.Collect(context.Background(), exec.NewStage(
		&exec.Restrict{Pred: boston, Name: "city=boston"}, exec.NewScan(tbl, nil)))
	if err != nil {
		t.Fatal(err)
	}

	src := tbl.NewMorselSource()
	workers := make([]exec.Operator, 3)
	for i := range workers {
		workers[i] = exec.NewStage(
			&exec.Restrict{Pred: boston, Name: "city=boston"}, exec.NewMorselScan(src, nil))
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
	hb := exec.NewHashBuild(bw, 0) // users.id
	pw := make([]exec.Operator, workers)
	for i := range pw {
		pw[i] = exec.NewProbeJoin(exec.NewMorselScan(osrc, nil), hb, 0) // orders.uid
	}
	return exec.NewGather(pw, hb), hb
}

func TestParallelJoinMatchesHashJoin(t *testing.T) {
	pool := newPool()
	users := makeUsers(t, pool, 60)
	orders := makeOrders(t, pool, 3000, 60)
	want, err := exec.Collect(context.Background(),
		exec.NewHashJoin(exec.NewScan(orders, nil), exec.NewScan(users, nil), 0, 0))
	if err != nil {
		t.Fatal(err)
	}

	g, hb := parallelJoin(t, users, orders, 3)
	got, err := exec.Collect(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, got, want)
	if held := hb.Stats().HeldRows; held != 60 {
		t.Fatalf("partitioned build held %d rows, want the 60-row build side", held)
	}
}

func TestParallelGroupAggMatchesGroupAgg(t *testing.T) {
	pool := newPool()
	tbl := makeUsers(t, pool, 999)
	aggs := []exec.Agg{{Kind: exec.AggCount}, {Kind: exec.AggSum, Col: 2}, {Kind: exec.AggMin, Col: 0}, {Kind: exec.AggMax, Col: 0}}
	serial := exec.NewGroupAgg(exec.NewScan(tbl, nil), 1, aggs...)
	want, err := exec.Collect(context.Background(), serial)
	if err != nil {
		t.Fatal(err)
	}

	src := tbl.NewMorselSource()
	workers := make([]exec.Operator, 4)
	for i := range workers {
		workers[i] = exec.NewMorselScan(src, nil)
	}
	pg := exec.NewParallelGroupAgg(workers, nil, 1, aggs...)
	got, err := exec.Collect(context.Background(), pg)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, got, want)
	if pg.Stats().HeldRows != 3 {
		t.Fatalf("merged aggregate held %d groups, want 3", pg.Stats().HeldRows)
	}
	if sch, want := pg.OutSchema(), serial.OutSchema(); len(sch.Cols) != len(want.Cols) {
		t.Fatalf("schema %v, want %v", sch.Cols, want.Cols)
	}
}

func TestProbeBeforeBuildOpenErrors(t *testing.T) {
	pool := newPool()
	users := makeUsers(t, pool, 30)
	orders := makeOrders(t, pool, 30, 30)
	hb := exec.NewHashBuild([]exec.Operator{exec.NewScan(users, nil)}, 0)
	pj := exec.NewProbeJoin(exec.NewScan(orders, nil), hb, 0)
	if err := pj.Open(context.Background()); err == nil {
		pj.Close()
		t.Fatal("ProbeJoin.Open succeeded against an unopened HashBuild")
	}
}

func TestGatherNextBeforeOpenErrors(t *testing.T) {
	g := exec.ParallelScan(makeUsers(t, newPool(), 10), 2)
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
func (f *failOp) Next() ([]table.Row, error) {
	if !f.open {
		return nil, errors.New("failop: next before open")
	}
	if f.n >= f.after {
		return nil, f.err
	}
	f.n++
	return []table.Row{{core.Int(f.n), core.Str("fail"), core.Int(0)}}, nil
}
func (f *failOp) Close() error { f.open = false; return nil }
func (f *failOp) OutSchema() table.Schema {
	return table.Schema{Name: "fail", Cols: []string{"id", "city", "score"}}
}
func (f *failOp) Stats() exec.OpStats       { return exec.OpStats{} }
func (f *failOp) Children() []exec.Operator { return nil }
func (f *failOp) String() string            { return "failop" }
func (f *failOp) RetainableBatches() bool   { return true }

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
		_, err := exec.Count(ctx, exec.NewParallelGroupAgg(workers, nil, 1, exec.Agg{Kind: exec.AggCount}))
		return err
	})
}

func TestParallelScanCancel(t *testing.T) {
	pool := newPool()
	tbl := makeUsers(t, pool, 8000)
	xtest.AssertCancelAborts(t, 3, func(ctx context.Context) error {
		g := exec.ParallelScan(tbl, 4)
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
		_, err := exec.Count(ctx, exec.NewParallelGroupAgg(workers, nil, 1, exec.Agg{Kind: exec.AggCount}))
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
		g := exec.ParallelScan(tbl, 4)
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
