package exec_test

import (
	"context"
	"testing"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/index"
	"xst/internal/table"
	"xst/internal/xtest"
)

// buildIndexes builds both access paths over users.id.
func buildIndexes(t testing.TB, tbl *table.Table) (*index.HashIndex, *index.BTree) {
	t.Helper()
	h, err := index.BuildHash(context.Background(), tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := index.BuildBTree(context.Background(), tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	return h, bt
}

// scanWhere is the full-scan oracle: every row passing keep.
func scanWhere(t *testing.T, tbl *table.Table, keep func(table.Row) bool) []table.Row {
	t.Helper()
	all, err := exec.Collect(context.Background(), exec.NewScan(tbl, nil))
	if err != nil {
		t.Fatal(err)
	}
	var out []table.Row
	for _, r := range all {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

func TestHashIndexScanPoint(t *testing.T) {
	tbl := makeUsers(t, newPool(), 3000)
	h, _ := buildIndexes(t, tbl)
	got, err := exec.Collect(context.Background(),
		exec.NewHashIndexScan(tbl, h, core.Int(1234), "users.id=1234"))
	if err != nil {
		t.Fatal(err)
	}
	want := scanWhere(t, tbl, func(r table.Row) bool { return core.Equal(r[0], core.Int(1234)) })
	sameRows(t, got, want)

	// Missing key → empty, not an error.
	got, err = exec.Collect(context.Background(),
		exec.NewHashIndexScan(tbl, h, core.Int(-7), "users.id=-7"))
	if err != nil || len(got) != 0 {
		t.Fatalf("missing key: rows=%d err=%v", len(got), err)
	}
}

func TestHashIndexScanDuplicates(t *testing.T) {
	tbl := makeUsers(t, newPool(), 300)
	// Column 2 (score) has 10 distinct values over 300 rows.
	h, err := index.BuildHash(context.Background(), tbl, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Collect(context.Background(),
		exec.NewHashIndexScan(tbl, h, core.Int(4), "users.score=4"))
	if err != nil {
		t.Fatal(err)
	}
	want := scanWhere(t, tbl, func(r table.Row) bool { return core.Equal(r[2], core.Int(4)) })
	if len(want) != 30 {
		t.Fatalf("oracle rows = %d", len(want))
	}
	sameRows(t, got, want)
}

func TestBTreeIndexScanRanges(t *testing.T) {
	tbl := makeUsers(t, newPool(), 3000)
	_, bt := buildIndexes(t, tbl)
	le := func(a, b core.Value) bool { return core.Compare(a, b) <= 0 }
	lt := func(a, b core.Value) bool { return core.Compare(a, b) < 0 }
	cases := []struct {
		name           string
		lo, hi         core.Value
		loIncl, hiIncl bool
		keep           func(table.Row) bool
	}{
		{"closed", core.Int(100), core.Int(200), true, true,
			func(r table.Row) bool { return le(core.Int(100), r[0]) && le(r[0], core.Int(200)) }},
		{"half open", core.Int(100), core.Int(200), true, false,
			func(r table.Row) bool { return le(core.Int(100), r[0]) && lt(r[0], core.Int(200)) }},
		{"exclusive lo", core.Int(100), core.Int(200), false, true,
			func(r table.Row) bool { return lt(core.Int(100), r[0]) && le(r[0], core.Int(200)) }},
		{"open high", core.Int(2990), nil, true, false,
			func(r table.Row) bool { return le(core.Int(2990), r[0]) }},
		{"open low", nil, core.Int(10), false, false,
			func(r table.Row) bool { return lt(r[0], core.Int(10)) }},
		{"point via btree", core.Int(42), core.Int(42), true, true,
			func(r table.Row) bool { return core.Equal(r[0], core.Int(42)) }},
		{"empty range", core.Int(200), core.Int(100), true, true,
			func(table.Row) bool { return false }},
		{"out of domain", core.Int(5000), core.Int(6000), true, true,
			func(table.Row) bool { return false }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := exec.Collect(context.Background(),
				exec.NewBTreeIndexScan(tbl, bt, tc.lo, tc.hi, tc.loIncl, tc.hiIncl, "users.id range"))
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, got, scanWhere(t, tbl, tc.keep))
		})
	}
}

func TestIndexScanEmptyTable(t *testing.T) {
	pool := newPool()
	tbl, err := table.Create(pool, table.Schema{Name: "empty", Cols: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	h, bt := buildIndexes(t, tbl)
	for _, op := range []exec.Operator{
		exec.NewHashIndexScan(tbl, h, core.Int(1), "empty.x=1"),
		exec.NewBTreeIndexScan(tbl, bt, nil, nil, false, false, "empty.x all"),
	} {
		rows, err := exec.Collect(context.Background(), op)
		if err != nil || len(rows) != 0 {
			t.Fatalf("%s: rows=%d err=%v", op, len(rows), err)
		}
	}
}

func TestIndexScanNextBeforeOpen(t *testing.T) {
	tbl := makeUsers(t, newPool(), 10)
	h, _ := buildIndexes(t, tbl)
	s := exec.NewHashIndexScan(tbl, h, core.Int(1), "users.id=1")
	if _, err := s.Next(); err == nil {
		t.Fatal("want Next-before-Open error")
	}
}

func TestIndexScanCancelMidRangeGather(t *testing.T) {
	// >256 distinct keys so the Open-time range walk crosses a poll.
	tbl := makeUsers(t, newPool(), 4000)
	_, bt := buildIndexes(t, tbl)
	xtest.AssertCancelAborts(t, 2, func(ctx context.Context) error {
		return exec.Stream(ctx,
			exec.NewBTreeIndexScan(tbl, bt, nil, nil, false, false, "users.id all"),
			func([]table.Row) error { return nil })
	})
}

func TestIndexScanCancelMidFetch(t *testing.T) {
	// Cancel later so the abort lands in the per-batch Next poll.
	tbl := makeUsers(t, newPool(), 4000)
	_, bt := buildIndexes(t, tbl)
	xtest.AssertCancelAborts(t, 20, func(ctx context.Context) error {
		return exec.Stream(ctx,
			exec.NewBTreeIndexScan(tbl, bt, nil, nil, false, false, "users.id all"),
			func([]table.Row) error { return nil })
	})
}

func TestIndexBuildCancel(t *testing.T) {
	tbl := makeUsers(t, newPool(), 4000)
	xtest.AssertCancelAborts(t, 2, func(ctx context.Context) error {
		_, err := index.BuildHash(ctx, tbl, 0)
		return err
	})
	xtest.AssertCancelAborts(t, 2, func(ctx context.Context) error {
		_, err := index.BuildBTree(ctx, tbl, 0)
		return err
	})
}

func TestBTreeBuildRejectsNonAtoms(t *testing.T) {
	pool := newPool()
	tbl, err := table.Create(pool, table.Schema{Name: "sets", Cols: []string{"v"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(table.Row{core.Tuple(core.Int(1), core.Int(2))}); err != nil {
		t.Fatal(err)
	}
	if _, err := index.BuildBTree(context.Background(), tbl, 0); err == nil {
		t.Fatal("want non-atom build error")
	}
	// The hash path indexes any value kind.
	h, err := index.BuildHash(context.Background(), tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(context.Background(),
		exec.NewHashIndexScan(tbl, h, core.Tuple(core.Int(1), core.Int(2)), "sets.v=⟨1,2⟩"))
	if err != nil || len(rows) != 1 {
		t.Fatalf("set-valued point lookup: rows=%d err=%v", len(rows), err)
	}
}

func TestIndexScanStatsBounded(t *testing.T) {
	tbl := makeUsers(t, newPool(), 3000)
	_, bt := buildIndexes(t, tbl)
	op := exec.NewBTreeIndexScan(tbl, bt, nil, nil, false, false, "users.id all")
	rows, err := exec.Collect(context.Background(), op)
	if err != nil {
		t.Fatal(err)
	}
	st := op.Stats()
	if len(rows) != 3000 || st.RowsOut != 3000 || st.RowsIn != 3000 {
		t.Fatalf("rows=%d stats=%+v", len(rows), st)
	}
	if st.MaxBatch > exec.MaxBatchRows {
		t.Fatalf("max batch %d exceeds cap", st.MaxBatch)
	}
	if st.Batches < 3 {
		t.Fatalf("batches = %d, want chunked output", st.Batches)
	}
}
