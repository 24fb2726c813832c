package relational

import (
	"context"
	"fmt"
	"testing"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/index"
	"xst/internal/plan"
	"xst/internal/table"
	"xst/internal/workload"
	"xst/internal/xtest"
)

// This file holds the two experiments this package is the baseline of.
// E8 (§12, ref [4]) sets record-at-a-time iterators against the
// set-at-a-time executor; E10 (ref [4]) sets prestructured access paths
// against one dynamic set pass. Each has a quick-scale test of what is
// deterministic and a full-scale benchmark that holds the timing claim.

func dataset(tb testing.TB, users, orders int) *workload.Dataset {
	tb.Helper()
	ds, err := workload.Build(workload.Spec{Seed: 42, Users: users, Orders: orders, Cities: 50}, 512)
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

// counted turns a counting query into a benchmark body that fails the
// benchmark on error.
func counted(b *testing.B, q func() (int, error)) func() {
	return func() {
		if _, err := q(); err != nil {
			b.Fatal(err)
		}
	}
}

// setVsRecord is E8's pair of queries, a city selection over users and
// the orders⋈users join, each runnable both ways.
type setVsRecord struct {
	ds      *workload.Dataset
	city    core.Value
	cityCol int
	uidCol  int
}

func newSetVsRecord(tb testing.TB, n int) setVsRecord {
	ds := dataset(tb, n, 2*n)
	return setVsRecord{ds: ds, city: workload.SelectivityValue(50),
		cityCol: ds.Users.Schema().Col("city"), uidCol: ds.Orders.Schema().Col("uid")}
}

func (q setVsRecord) recordSelect() (int, error) {
	return Count(&Filter{Child: NewTableScan(q.ds.Users), Pred: ColEq(q.cityCol, q.city)})
}

func (q setVsRecord) setSelect() (int, error) {
	return exec.Count(context.Background(), exec.NewStages(exec.NewScan(q.ds.Users, nil), &exec.Restrict{
		Filter: plan.CompilePred(plan.Cmp{Col: "city", Op: plan.Eq, Val: q.city}, q.ds.Users.Schema()),
		Name:   "city",
	}))
}

func (q setVsRecord) recordJoin() (int, error) {
	return Count(&HashJoin{Left: NewTableScan(q.ds.Orders), Right: NewTableScan(q.ds.Users), LeftCol: q.uidCol, RightCol: 0})
}

func (q setVsRecord) setJoin() (int, error) {
	return exec.Count(context.Background(), exec.NewHashJoin(
		exec.NewScan(q.ds.Orders, nil), exec.NewScan(q.ds.Users, nil), q.uidCol, 0))
}

// TestSetAndRecordAgree is E8 at quick scale: both disciplines count the
// same selected and joined rows.
func TestSetAndRecordAgree(t *testing.T) {
	for _, n := range []int{500, 2_000} {
		q := newSetVsRecord(t, n)
		for _, pair := range []struct {
			name        string
			record, set func() (int, error)
		}{
			{"select", q.recordSelect, q.setSelect},
			{"join", q.recordJoin, q.setJoin},
		} {
			rec, err := pair.record()
			if err != nil {
				t.Fatal(err)
			}
			set, err := pair.set()
			if err != nil {
				t.Fatal(err)
			}
			if rec != set || rec == 0 {
				t.Fatalf("n=%d %s: record-at-a-time %d rows, set-at-a-time %d", n, pair.name, rec, set)
			}
		}
	}
}

// BenchmarkSetVsRecord is E8 at full scale, record-at-a-time as base and
// set-at-a-time as variant. The claim: at 50 000 users, the set-at-a-time
// selection is not slower.
func BenchmarkSetVsRecord(b *testing.B) {
	for _, n := range []int{2_000, 10_000, 50_000} {
		q := newSetVsRecord(b, n)
		b.Run(fmt.Sprintf("select/rows=%d", n), func(b *testing.B) {
			x := xtest.Versus(b, counted(b, q.recordSelect), counted(b, q.setSelect))
			if n == 50_000 && x < 1 {
				b.Fatalf("set-at-a-time selection %.2fx of record-at-a-time: slower", x)
			}
		})
		b.Run(fmt.Sprintf("join/rows=%d", n), func(b *testing.B) {
			xtest.Versus(b, counted(b, q.recordJoin), counted(b, q.setJoin))
		})
	}
}

// restructuring is E10's fixture: orders with a prebuilt hash index on
// uid, answering a batch of uid lookups either by per-key probes or by
// one set pass restricting by the key set.
type restructuring struct {
	orders *table.Table
	uidCol int
	users  int
	idx    *index.HashIndex
}

func newRestructuring(tb testing.TB, n int) restructuring {
	ds := dataset(tb, n/5, n)
	r := restructuring{orders: ds.Orders, uidCol: ds.Orders.Schema().Col("uid"), users: n / 5}
	idx, err := BuildHashIndex(ds.Orders, r.uidCol)
	if err != nil {
		tb.Fatal(err)
	}
	r.idx = idx
	return r
}

// keys draws a batch of q lookups and deduplicates it: a batch is a set
// of lookups, so the probes answer the same question as the set pass.
func (r restructuring) keys(q int) []core.Value {
	seen := map[string]core.Value{}
	for _, k := range workload.LookupKeys(42^uint64(q), q, r.users, 0) {
		seen[core.Key(k)] = k
	}
	out := make([]core.Value, 0, len(seen))
	for _, k := range seen {
		out = append(out, k)
	}
	return out
}

func (r restructuring) probe(keys []core.Value) func() (int, error) {
	return func() (int, error) {
		hits := 0
		for _, k := range keys {
			for _, rid := range r.idx.Lookup(core.Key(k)) {
				if _, err := r.orders.Get(rid); err != nil {
					return 0, err
				}
				hits++
			}
		}
		return hits, nil
	}
}

func (r restructuring) pass(keys []core.Value) func() (int, error) {
	set := make(map[string]bool, len(keys))
	for _, k := range keys {
		set[core.Key(k)] = true
	}
	return func() (int, error) {
		return exec.Count(context.Background(), exec.NewStages(exec.NewScan(r.orders, nil), &exec.Restrict{
			Filter: func(b *table.Batch, sel []int32) []int32 {
				uid, k := &b.Cols[r.uidCol], 0
				for _, i := range sel {
					if set[core.Key(uid.Value(int(i)))] {
						sel[k], k = i, k+1
					}
				}
				return sel[:k]
			},
			Name: "uid∈keys",
		}))
	}
}

// rangeScan and rangePass answer uid ∈ [lo, hi) through the ordered
// prestructure and through one set pass.
func (r restructuring) rangeScan(bt *index.BTree, lo, hi core.Value) func() (int, error) {
	return func() (int, error) { return Count(&IndexRangeScan{Table: r.orders, Index: bt, Lo: lo, Hi: hi}) }
}

func (r restructuring) rangePass(lo, hi core.Value) func() (int, error) {
	return func() (int, error) {
		col := r.orders.Schema().Cols[r.uidCol]
		return exec.Count(context.Background(), exec.NewStages(exec.NewScan(r.orders, nil), &exec.Restrict{
			Filter: plan.CompilePred(plan.And{plan.Cmp{Col: col, Op: plan.Ge, Val: lo}, plan.Cmp{Col: col, Op: plan.Lt, Val: hi}}, r.orders.Schema()),
			Name:   "uid range",
		}))
	}
}

func (r restructuring) btree(tb testing.TB) *index.BTree {
	bt, err := BuildBTreeIndex(r.orders, r.uidCol)
	if err != nil {
		tb.Fatal(err)
	}
	return bt
}

// TestRestructuringAgrees is E10 at quick scale: per-key probes and the
// set pass find the same rows for every batch size, and so do the
// B+tree range scan and the range pass.
func TestRestructuringAgrees(t *testing.T) {
	const n = 3_000
	r := newRestructuring(t, n)
	same := func(what string, a, b func() (int, error)) {
		t.Helper()
		x, err := a()
		if err != nil {
			t.Fatal(err)
		}
		y, err := b()
		if err != nil {
			t.Fatal(err)
		}
		if x != y || x == 0 {
			t.Fatalf("%s: prestructured %d rows, set pass %d", what, x, y)
		}
	}
	for _, q := range []int{1, 10, 100} {
		keys := r.keys(q)
		same(fmt.Sprintf("batch %d", q), r.probe(keys), r.pass(keys))
	}
	lo, hi := core.Int(n/20), core.Int(n/10)
	same("range", r.rangeScan(r.btree(t), lo, hi), r.rangePass(lo, hi))
}

// BenchmarkRestructuring is E10 at full scale (50 000 orders), the
// prestructured path as base and one set pass as variant. The claim: a
// single-key lookup through the index is not slower than the pass. The
// build sub-benchmark is the index cost a batch must amortize.
func BenchmarkRestructuring(b *testing.B) {
	const n = 50_000
	r := newRestructuring(b, n)
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := BuildHashIndex(r.orders, r.uidCol); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, q := range []int{1, 10, 100, 1_000} {
		keys := r.keys(q)
		b.Run(fmt.Sprintf("batch=%d", q), func(b *testing.B) {
			x := xtest.Versus(b, counted(b, r.probe(keys)), counted(b, r.pass(keys)))
			if q == 1 && x > 1 {
				b.Fatalf("one index probe %.2fx slower than one set pass", x)
			}
		})
	}
	bt := r.btree(b)
	lo, hi := core.Int(n/20), core.Int(n/10)
	b.Run("range", func(b *testing.B) {
		xtest.Versus(b, counted(b, r.rangeScan(bt, lo, hi)), counted(b, r.rangePass(lo, hi)))
	})
}

// The scan-discipline benchmarks: one full scan, and a selection sweep
// over three selectivities, record-at-a-time against set-at-a-time.

func BenchmarkScanRecordAtATime(b *testing.B) {
	ds := dataset(b, 5000, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := Count(NewTableScan(ds.Users))
		if err != nil || n != 5000 {
			b.Fatal(n, err)
		}
	}
}

func BenchmarkScanSetAtATime(b *testing.B) {
	ds := dataset(b, 5000, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := exec.Count(context.Background(), exec.NewScan(ds.Users, nil))
		if err != nil || n != 5000 {
			b.Fatal(n, err)
		}
	}
}

func BenchmarkSelectivitySweepSetVsRecord(b *testing.B) {
	ds := dataset(b, 5000, 5000)
	cityCol := ds.Users.Schema().Col("city")
	for _, cities := range []int{2, 10, 50} {
		target := core.Str(fmt.Sprintf("city-%03d", cities/2))
		b.Run(fmt.Sprintf("record/1-in-%d", cities), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Count(&Filter{Child: NewTableScan(ds.Users), Pred: ColEq(cityCol, target)}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("set/1-in-%d", cities), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exec.Count(context.Background(), exec.NewStage(&exec.Restrict{
					Filter: plan.CompilePred(plan.Cmp{Col: "city", Op: plan.Eq, Val: target}, ds.Users.Schema()),
					Name:   "city",
				}, exec.NewScan(ds.Users, nil))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
