package table

import (
	"testing"

	"xst/internal/core"
	"xst/internal/store"
)

func testTable(t *testing.T) *Table {
	t.Helper()
	pool := store.NewBufferPool(store.NewMemPager(), 16)
	tbl, err := Create(pool, Schema{Name: "t", Cols: []string{"id", "name", "score"}})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func row(id int, name string, score float64) Row {
	return Row{core.Int(id), core.Str(name), core.Float(score)}
}

func TestSchemaCol(t *testing.T) {
	s := Schema{Cols: []string{"a", "b"}}
	if s.Col("a") != 0 || s.Col("b") != 1 || s.Col("z") != -1 {
		t.Fatal("Col wrong")
	}
	if s.Arity() != 2 {
		t.Fatal("Arity wrong")
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	rows := []Row{
		{},
		{core.Int(1)},
		{core.Int(-5), core.Str("héllo"), core.Float(2.5), core.Bool(true)},
		{core.S(core.Int(1)), core.Pair(core.Str("a"), core.Str("b"))},
	}
	for _, r := range rows {
		enc := EncodeRow(nil, r)
		got, err := DecodeRow(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(got) != len(r) {
			t.Fatalf("arity %d != %d", len(got), len(r))
		}
		for i := range r {
			if !core.Equal(got[i], r[i]) {
				t.Fatalf("field %d: %v != %v", i, got[i], r[i])
			}
		}
	}
}

func TestRowCodecCorrupt(t *testing.T) {
	if _, err := DecodeRow(nil); err == nil {
		t.Fatal("empty buffer must fail")
	}
	enc := EncodeRow(nil, Row{core.Int(1)})
	if _, err := DecodeRow(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated row must fail")
	}
	if _, err := DecodeRow(append(enc, 0)); err == nil {
		t.Fatal("trailing bytes must fail")
	}
}

func TestInsertGetDelete(t *testing.T) {
	tbl := testTable(t)
	rid, err := tbl.Insert(row(1, "ada", 9.5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	if !core.Equal(got[1], core.Str("ada")) {
		t.Fatal("Get wrong")
	}
	if _, err := tbl.Insert(Row{core.Int(1)}); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	if err := tbl.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if tbl.Count() != 0 {
		t.Fatal("count after delete")
	}
}

func TestScanAndBatches(t *testing.T) {
	tbl := testTable(t)
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(row(i, "user", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	if err := tbl.Scan(func(_ store.RID, r Row) (bool, error) {
		if !core.Equal(r[0], core.Int(seen)) {
			t.Fatalf("scan order broken at %d: %v", seen, r)
		}
		seen++
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("scanned %d rows", seen)
	}

	batches, rows := 0, 0
	if err := tbl.ScanBatches(func(_ store.PageID, rs []Row) (bool, error) {
		batches++
		rows += len(rs)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if rows != n || batches == 0 || batches >= n {
		t.Fatalf("batches=%d rows=%d", batches, rows)
	}
	// Early stop paths.
	cnt := 0
	tbl.Scan(func(store.RID, Row) (bool, error) { cnt++; return false, nil })
	if cnt != 1 {
		t.Fatal("scan early stop")
	}
}

func TestToXST(t *testing.T) {
	tbl := testTable(t)
	tbl.Insert(row(1, "a", 1))
	tbl.Insert(row(2, "b", 2))
	s, err := tbl.ToXST()
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("XST set has %d members", s.Len())
	}
	want := core.Tuple(core.Int(1), core.Str("a"), core.Float(1))
	if !s.HasClassical(want) {
		t.Fatalf("missing tuple %v in %v", want, s)
	}
}

func TestOpenAndFirstPage(t *testing.T) {
	pool := store.NewBufferPool(store.NewMemPager(), 16)
	tbl, err := Create(pool, Schema{Name: "t", Cols: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		tbl.Insert(Row{core.Int(i)})
	}
	re, err := Open(pool, tbl.Schema(), tbl.FirstPage())
	if err != nil {
		t.Fatal(err)
	}
	if re.Count() != 40 {
		t.Fatalf("reopened count = %d", re.Count())
	}
	if re.Schema().Name != "t" {
		t.Fatal("schema lost")
	}
	if re.Pool() != pool {
		t.Fatal("pool accessor wrong")
	}
	if _, err := Open(pool, tbl.Schema(), store.PageID(999)); err == nil {
		t.Fatal("open of bogus page must fail")
	}
}

func TestInsertAllAndClone(t *testing.T) {
	tbl := testTable(t)
	rows := []Row{row(1, "a", 1), row(2, "b", 2)}
	if err := tbl.InsertAll(rows); err != nil {
		t.Fatal(err)
	}
	if tbl.Count() != 2 {
		t.Fatal("InsertAll count")
	}
	if err := tbl.InsertAll([]Row{{core.Int(1)}}); err == nil {
		t.Fatal("InsertAll arity mismatch must fail")
	}
	r := rows[0]
	c := r.Clone()
	c[0] = core.Int(99)
	if !core.Equal(r[0], core.Int(1)) {
		t.Fatal("Clone must not alias")
	}
}

func TestCursorPull(t *testing.T) {
	tbl := testTable(t)
	for i := 0; i < 120; i++ {
		tbl.Insert(row(i, "u", 0))
	}
	cur := tbl.NewCursor()
	n := 0
	for {
		_, r, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if !core.Equal(r[0], core.Int(n)) {
			t.Fatalf("cursor order broken at %d", n)
		}
		n++
	}
	if n != 120 {
		t.Fatalf("cursor pulled %d rows", n)
	}
	// Reset replays from the start.
	cur.Reset()
	_, r, ok, err := cur.Next()
	if err != nil || !ok || !core.Equal(r[0], core.Int(0)) {
		t.Fatal("Reset failed")
	}
}

func TestPageIDsAndReadPageRows(t *testing.T) {
	tbl := testTable(t)
	for i := 0; i < 300; i++ {
		tbl.Insert(row(i, "user-with-some-padding", float64(i)))
	}
	ids, err := tbl.PageIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) < 2 {
		t.Fatalf("expected multiple pages, got %d", len(ids))
	}
	total := 0
	for _, id := range ids {
		rows, err := tbl.ReadPageRows(id)
		if err != nil {
			t.Fatal(err)
		}
		total += len(rows)
	}
	if total != 300 {
		t.Fatalf("page rows sum to %d", total)
	}
	if _, err := tbl.ReadPageRows(store.PageID(9999)); err == nil {
		t.Fatal("bogus page read must fail")
	}
}

func TestScanErrorPropagation(t *testing.T) {
	tbl := testTable(t)
	tbl.Insert(row(1, "x", 1))
	wantErr := core.ErrCorrupt // any sentinel to thread through
	err := tbl.Scan(func(_ store.RID, _ Row) (bool, error) {
		return false, wantErr
	})
	if err != wantErr {
		t.Fatalf("scan error = %v", err)
	}
	err = tbl.ScanBatches(func(_ store.PageID, _ []Row) (bool, error) {
		return false, wantErr
	})
	if err != wantErr {
		t.Fatalf("batch scan error = %v", err)
	}
}

func TestVacuum(t *testing.T) {
	tbl := testTable(t)
	var rids []store.RID
	for i := 0; i < 50; i++ {
		rid, _ := tbl.Insert(row(i, "user", 0))
		rids = append(rids, rid)
	}
	for i := 0; i < 50; i += 2 {
		tbl.Delete(rids[i])
	}
	compact, err := tbl.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if compact.Count() != 25 {
		t.Fatalf("vacuumed count = %d, want 25", compact.Count())
	}
	// Surviving rows intact and densely packed (ids odd).
	n := 0
	compact.Scan(func(_ store.RID, r Row) (bool, error) {
		if int(r[0].(core.Int))%2 != 1 {
			t.Fatalf("even id survived: %v", r)
		}
		n++
		return true, nil
	})
	if n != 25 {
		t.Fatal("scan count wrong")
	}
}

// BenchmarkEncodeDecode round-trips one mixed row (an int, a string and
// a pair) through the row codec pages and the wire both use.
func BenchmarkEncodeDecode(b *testing.B) {
	row := Row{core.Int(1), core.Str("hello"), core.Pair(core.Int(2), core.Int(3))}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = EncodeRow(buf[:0], row)
		if _, err := DecodeRow(buf); err != nil {
			b.Fatal(err)
		}
	}
}
