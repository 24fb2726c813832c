package table

import (
	"errors"
	"testing"

	"xst/internal/core"
	"xst/internal/store"
)

func testTable(t *testing.T) *Appender {
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
	a := testTable(t)
	tbl := a.Table()
	rid, err := a.Insert(row(1, "ada", 9.5))
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
	if _, err := a.Insert(Row{core.Int(1)}); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	// No writer deletes a row, but a page read from disk may hold a
	// tombstoned slot: Get and Fetch answer it as no record.
	fr, err := tbl.Pool().Page(rid.Page)
	if err != nil {
		t.Fatal(err)
	}
	tombstone(store.SlottedPage(fr.Data()), int(rid.Slot))
	fr.MarkDirty()
	fr.Unpin()
	if _, err := tbl.Get(rid); !errors.Is(err, store.ErrNoRecord) {
		t.Fatalf("Get of a tombstoned row: %v, want ErrNoRecord", err)
	}
	if err := tbl.Fetch([]store.RID{rid}, new(Batch), nil); !errors.Is(err, store.ErrNoRecord) {
		t.Fatalf("Fetch of a tombstoned row: %v, want ErrNoRecord", err)
	}
}

func TestScanAndBatches(t *testing.T) {
	a := testTable(t)
	tbl := a.Table()
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := a.Insert(row(i, "user", float64(i))); err != nil {
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
	a := testTable(t)
	tbl := a.Table()
	a.Insert(row(1, "a", 1))
	a.Insert(row(2, "b", 2))
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
	a, err := Create(pool, Schema{Name: "t", Cols: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		a.Insert(Row{core.Int(i)})
	}
	tbl := a.Table()
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
	a := testTable(t)
	tbl := a.Table()
	rows := []Row{row(1, "a", 1), row(2, "b", 2)}
	if err := a.InsertAll(rows); err != nil {
		t.Fatal(err)
	}
	if tbl.Count() != 2 {
		t.Fatal("InsertAll count")
	}
	if err := a.InsertAll([]Row{{core.Int(1)}}); err == nil {
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
	a := testTable(t)
	tbl := a.Table()
	for i := 0; i < 120; i++ {
		a.Insert(row(i, "u", 0))
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

func TestPageIDsAndReadPage(t *testing.T) {
	a := testTable(t)
	tbl := a.Table()
	for i := 0; i < 300; i++ {
		a.Insert(row(i, "user-with-some-padding", float64(i)))
	}
	ids, err := tbl.PageIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) < 2 {
		t.Fatalf("expected multiple pages, got %d", len(ids))
	}
	total := 0
	var pb PageBatch
	for _, id := range ids {
		b, err := tbl.ReadPage(id, &pb, nil)
		if err != nil {
			t.Fatal(err)
		}
		total += b.Len
	}
	if total != 300 {
		t.Fatalf("page rows sum to %d", total)
	}
	if _, err := tbl.ReadPage(store.PageID(9999), &pb, nil); err == nil {
		t.Fatal("bogus page read must fail")
	}
}

func TestScanErrorPropagation(t *testing.T) {
	a := testTable(t)
	tbl := a.Table()
	a.Insert(row(1, "x", 1))
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

// Inserting an int+string row into a page with room allocates nothing:
// the record is encoded on the stack and the page copies it.
func TestInsertIntoRoomyPageAllocatesNothing(t *testing.T) {
	a, err := Create(store.NewBufferPool(store.NewMemPager(), 8), Schema{Name: "t", Cols: []string{"id", "name"}})
	if err != nil {
		t.Fatal(err)
	}
	row := Row{core.Int(123456), core.Str("someone")}
	if got := testing.AllocsPerRun(50, func() {
		if _, err := a.Insert(row); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Insert into a page with room: %.1f allocations, want 0", got)
	}
	if n := a.Table().Count(); n != 51 {
		t.Fatalf("%d rows, want 51", n)
	}
}
