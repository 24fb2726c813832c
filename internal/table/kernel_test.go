package table

import (
	"fmt"
	"strings"
	"testing"

	"xst/internal/core"
	"xst/internal/store"
)

// kernelPage builds one slotted page holding rows, then tombstones the
// slots in dead.
func kernelPage(t *testing.T, rows []Row, dead ...int) store.SlottedPage {
	t.Helper()
	buf := make([]byte, store.PageSize)
	store.InitPage(buf)
	p := store.SlottedPage(buf)
	for i, r := range rows {
		if _, ok := p.Insert(EncodeRow(nil, r)); !ok {
			t.Fatalf("row %d does not fit the page", i)
		}
	}
	for _, slot := range dead {
		if !p.Delete(slot) {
			t.Fatalf("slot %d: nothing to delete", slot)
		}
	}
	return p
}

// oracleRows decodes a page record by record with DecodeRow.
func oracleRows(t *testing.T, p store.SlottedPage) []Row {
	t.Helper()
	var out []Row
	p.Each(func(_ int, rec []byte) bool {
		r, err := DecodeRow(rec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
		return true
	})
	return out
}

// TestPageBatchMatchesDecodeRow is the kernel's differential test: over
// every page shape, with every needed-column mask, Decode returns the
// rows DecodeRow returns, except that a masked-out position is nil.
func TestPageBatchMatchesDecodeRow(t *testing.T) {
	// The largest record a page takes: 4082 bytes = arity + tag + length
	// (2 bytes) + 4078 bytes of string.
	const maxStr = store.PageSize - 10 - 4 - 4
	mixed := func(n int) []Row {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{
				core.Int(i - 3),
				core.Str(fmt.Sprintf("name-%d \"q\"", i)),
				core.S(core.Int(i), core.Str("x")),
				core.Pair(core.Float(float64(i)/2), core.Bool(i%2 == 0)),
			}
		}
		return rows
	}
	pages := []struct {
		name string
		rows []Row
		dead []int
	}{
		{"empty page", nil, nil},
		{"ints", []Row{{core.Int(1), core.Int(300)}, {core.Int(-7), core.Int(0)}}, nil},
		{"strings and sets", mixed(20), nil},
		{"tombstones", mixed(20), []int{0, 7, 8, 19}},
		{"all tombstoned", mixed(3), []int{0, 1, 2}},
		{"maximum-size record", []Row{{core.Str(strings.Repeat("m", maxStr))}}, nil},
		{"zero-arity rows", []Row{{}, {}}, nil},
		{"ragged arities", []Row{{core.Int(1)}, {core.Int(1), core.Str("b"), core.Int(3)}, {}}, nil},
	}
	masks := [][]bool{
		nil,
		{},
		{true},
		{false, true},
		{true, false, true, false},
		{false, false, false, false},
		{true, true, true, true, true}, // longer than any row
	}
	var b PageBatch // one batch across every case: reuse is part of the contract
	for _, pg := range pages {
		p := kernelPage(t, pg.rows, pg.dead...)
		want := oracleRows(t, p)
		for _, need := range masks {
			got, err := b.Decode(p, need)
			if err != nil {
				t.Fatalf("%s, need %v: %v", pg.name, need, err)
			}
			if got == nil || len(got) != len(want) {
				t.Fatalf("%s, need %v: %d rows (nil=%v), want %d", pg.name, need, len(got), got == nil, len(want))
			}
			for i, w := range want {
				if len(got[i]) != len(w) {
					t.Fatalf("%s, need %v: row %d has arity %d, want %d", pg.name, need, i, len(got[i]), len(w))
				}
				for j := range w {
					switch {
					case need != nil && (j >= len(need) || !need[j]):
						if got[i][j] != nil {
							t.Fatalf("%s, need %v: row %d position %d = %v, want nil", pg.name, need, i, j, got[i][j])
						}
					case !core.Equal(got[i][j], w[j]):
						t.Fatalf("%s, need %v: row %d position %d = %v, want %v", pg.name, need, i, j, got[i][j], w[j])
					}
				}
			}
		}
	}
}

// TestPageBatchRowsDoNotOverlap: appending to one row of a batch must
// not write into its neighbour's window.
func TestPageBatchRowsDoNotOverlap(t *testing.T) {
	p := kernelPage(t, []Row{{core.Int(1)}, {core.Int(2)}})
	rows, err := new(PageBatch).Decode(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = append(rows[0], core.Int(99))
	if !core.Equal(rows[1][0], core.Int(2)) {
		t.Fatalf("row 1 = %v after an append to row 0", rows[1])
	}
}

func TestPageBatchCorrupt(t *testing.T) {
	buf := make([]byte, store.PageSize)
	store.InitPage(buf)
	p := store.SlottedPage(buf)
	p.Insert([]byte{2, 0x02, 0x04}) // arity 2, one int, then nothing
	var b PageBatch
	for _, need := range [][]bool{nil, {false, false}} {
		if _, err := b.Decode(p, need); err == nil {
			t.Fatalf("need %v: truncated record decoded", need)
		}
	}
	store.InitPage(buf)
	p.Insert(append(EncodeRow(nil, Row{core.Int(1)}), 0xff)) // trailing byte
	if _, err := b.Decode(p, nil); err == nil {
		t.Fatal("record with trailing bytes decoded")
	}
}

// intTable holds n rows (i, i%7): position 0 boxes for i ≥ 256,
// position 1 never does.
func intTable(t testing.TB, n, frames int) *Table {
	t.Helper()
	tbl, err := Create(store.NewBufferPool(store.NewMemPager(), frames), Schema{Name: "ints", Cols: []string{"id", "small"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(Row{core.Int(i), core.Int(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestScanAllocationsArePerPage pins the kernel's point: a warmed batch
// cursor allocates for the values it boxes and a constant per page (the
// pool's LRU element when the page is unpinned), never per row; with
// the boxing column masked out the constant is all that is left.
func TestScanAllocationsArePerPage(t *testing.T) {
	const n = 10_000
	tbl := intTable(t, n, 256)
	ids, _ := tbl.PageIDs()
	scan := func(need []bool) func() {
		cur := tbl.NewBatchCursor(need)
		return func() {
			cur.Reset()
			rows := 0
			for {
				_, batch, ok, err := cur.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				rows += len(batch)
			}
			if rows != n {
				t.Fatalf("scanned %d rows, want %d", rows, n)
			}
		}
	}
	boxed := float64(n - 256)
	perPage := float64(len(ids))
	if got := testing.AllocsPerRun(5, scan(nil)); got > boxed+perPage {
		t.Fatalf("full scan: %.0f allocations, want ≤ %d boxed ids + one per page (%d)", got, n-256, len(ids))
	}
	if got := testing.AllocsPerRun(5, scan([]bool{false, true})); got > perPage {
		t.Fatalf("scan of the small column: %.0f allocations, want ≤ one per page (%d)", got, len(ids))
	}
}

// TestPageListCostsNoPageFetch: PageIDs and NewMorselSource read the
// heap's own list, and the list is the chain a cursor walks.
func TestPageListCostsNoPageFetch(t *testing.T) {
	tbl := intTable(t, 3000, 4) // the pool holds a fraction of the table
	before := tbl.Pool().Stats()
	ids, err := tbl.PageIDs()
	if err != nil {
		t.Fatal(err)
	}
	src := tbl.NewMorselSource()
	if after := tbl.Pool().Stats(); after != before {
		t.Fatalf("page list touched the pool: %+v, then %+v", before, after)
	}
	if src.Pages() != len(ids) {
		t.Fatalf("morsel source deals %d pages, PageIDs lists %d", src.Pages(), len(ids))
	}
	var walked []store.PageID
	if err := tbl.ScanBatches(func(id store.PageID, _ []Row) (bool, error) {
		walked = append(walked, id)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(walked) != fmt.Sprint(ids) {
		t.Fatalf("PageIDs = %v, the chain is %v", ids, walked)
	}
}

// BenchmarkScanDecode sets the arena kernel (one PageBatch for the whole
// scan) beside per-record DecodeRow over the same 40 000-row table.
func BenchmarkScanDecode(b *testing.B) {
	const n = 40_000
	tbl := intTable(b, n, 1024)
	ids, _ := tbl.PageIDs()
	b.Run("arena", func(b *testing.B) {
		b.ReportAllocs()
		var batch PageBatch
		for i := 0; i < b.N; i++ {
			rows := 0
			for _, id := range ids {
				page, err := tbl.ReadPage(id, &batch, nil)
				if err != nil {
					b.Fatal(err)
				}
				rows += len(page)
			}
			if rows != n {
				b.Fatalf("scanned %d rows", rows)
			}
		}
	})
	b.Run("per-record", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows := 0
			err := tbl.Scan(func(store.RID, Row) (bool, error) { rows++; return true, nil })
			if err != nil || rows != n {
				b.Fatalf("scanned %d rows: %v", rows, err)
			}
		}
	})
}
