package table

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"xst/internal/core"
	"xst/internal/store"
)

// tombstone writes offset 0xFFFF and length 0 into a slot's entry of the
// slot directory (it follows the 10-byte page header, 4 bytes a slot):
// a deleted slot, as a page read from disk may hold it; no writer makes
// one.
func tombstone(p store.SlottedPage, slot int) {
	binary.LittleEndian.PutUint32(p[10+4*slot:], 0xFFFF)
}

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
		if _, ok := p.Get(slot); !ok {
			t.Fatalf("slot %d: nothing to delete", slot)
		}
		tombstone(p, slot)
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

// boxed boxes a decoded batch into rows, the form DecodeRow returns.
func boxed(b *Batch) []Row {
	rows, _ := b.AppendRows(nil, nil)
	return rows
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
	// kinds mixes kinds within each position, so every typed column is
	// demoted to boxed values part-way through the page.
	kinds := func(n int) []Row {
		vals := []core.Value{core.Int(300), core.Str("s"), core.Float(-0.5), core.Bool(true), core.S(core.Int(1)), core.Int(-1), core.Str("")}
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{vals[i%len(vals)], vals[(i/3)%len(vals)], core.Int(i)}
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
		{"kinds mixed within a column", kinds(30), []int{0, 4}},
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
			batch, err := b.Decode(p, p.NumSlots(), need)
			if err != nil {
				t.Fatalf("%s, need %v: %v", pg.name, need, err)
			}
			got := boxed(batch)
			if len(got) != len(want) {
				t.Fatalf("%s, need %v: %d rows, want %d", pg.name, need, len(got), len(want))
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

// TestPageBatchKindsAreChosenPerPage: a column of ints or strings is
// held unboxed, one of any other kind (or of mixed kinds) boxed.
func TestPageBatchKindsAreChosenPerPage(t *testing.T) {
	p := kernelPage(t, []Row{
		{core.Int(1), core.Str("a"), core.Float(1), core.Int(1)},
		{core.Int(2), core.Str("b"), core.Float(2), core.Str("x")},
	})
	b, err := new(PageBatch).Decode(p, p.NumSlots(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []ColKind{ColInt, ColStr, ColAny, ColAny}
	for c, k := range want {
		if b.Cols[c].Kind != k {
			t.Fatalf("column %d is kind %d, want %d", c, b.Cols[c].Kind, k)
		}
	}
}

// TestPageBatchRowsDoNotOverlap: appending to one boxed row of a batch
// must not write into its neighbour's window.
func TestPageBatchRowsDoNotOverlap(t *testing.T) {
	p := kernelPage(t, []Row{{core.Int(1)}, {core.Int(2)}})
	b, err := new(PageBatch).Decode(p, p.NumSlots(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := boxed(b)
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
		if _, err := b.Decode(p, p.NumSlots(), need); err == nil {
			t.Fatalf("need %v: truncated record decoded", need)
		}
	}
	store.InitPage(buf)
	p.Insert(append(EncodeRow(nil, Row{core.Int(1)}), 0xff)) // trailing byte
	if _, err := b.Decode(p, p.NumSlots(), nil); err == nil {
		t.Fatal("record with trailing bytes decoded")
	}
	store.InitPage(buf) // the records of one page are rows of one table
	p.Insert(EncodeRow(nil, Row{core.Int(1)}))
	p.Insert(EncodeRow(nil, Row{core.Int(1), core.Str("b")}))
	if _, err := b.Decode(p, p.NumSlots(), nil); err != core.ErrCorrupt {
		t.Fatalf("ragged arities decoded, err %v", err)
	}
	store.InitPage(buf) // a record that claims three values and holds two
	p.Insert(EncodeRow(nil, Row{core.Int(1), core.Str("b")}))
	p.Insert(append([]byte{3}, EncodeRow(nil, Row{core.Int(2), core.Str("c")})[1:]...))
	if _, err := b.Decode(p, p.NumSlots(), nil); err != core.ErrCorrupt {
		t.Fatalf("a record short of its arity decoded, err %v", err)
	}
}

// FuzzPageBatch: for arbitrary records on a slotted page, the kernel's
// columns hold what DecodeRow returns record by record, or the kernel
// reports core.ErrCorrupt — exactly when some record does not decode or
// the records do not share one arity.
func FuzzPageBatch(f *testing.F) {
	f.Add(EncodeRow(nil, Row{core.Int(300), core.Str("a")}), EncodeRow(nil, Row{core.Int(-2), core.Str("")}), []byte{2, 0x04, 0x00, 0x02, 0x02})
	f.Add(EncodeRow(nil, Row{core.Int(1), core.Float(2)}), EncodeRow(nil, Row{core.Str("x"), core.Bool(true)}), EncodeRow(nil, Row{core.S(core.Int(1)), core.Int(7)}))
	f.Add([]byte{1, 0x02}, []byte{}, []byte{0})
	f.Fuzz(func(t *testing.T, r1, r2, r3 []byte) {
		buf := make([]byte, store.PageSize)
		store.InitPage(buf)
		p := store.SlottedPage(buf)
		var want []Row
		corrupt := false
		for _, rec := range [][]byte{r1, r2, r3} {
			if _, ok := p.Insert(rec); !ok {
				continue
			}
			r, err := DecodeRow(rec)
			switch {
			case err != nil:
				corrupt = true
			case len(want) > 0 && len(r) != len(want[0]):
				corrupt = true
			default:
				want = append(want, r)
			}
		}
		b, err := new(PageBatch).Decode(p, p.NumSlots(), nil)
		if corrupt {
			if err != core.ErrCorrupt {
				t.Fatalf("kernel err %v, want core.ErrCorrupt", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("kernel: %v; DecodeRow decoded every record", err)
		}
		got := boxed(b)
		if len(got) != len(want) {
			t.Fatalf("kernel: %d rows, DecodeRow %d", len(got), len(want))
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("row %d: arity %d, DecodeRow %d", i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if !core.Equal(got[i][j], want[i][j]) || got[i][j].Kind() != want[i][j].Kind() {
					t.Fatalf("row %d position %d: %v, DecodeRow %v", i, j, got[i][j], want[i][j])
				}
			}
		}
	})
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
	return tbl.Table()
}

// TestScanAllocationsArePerPage pins the kernel's point: ReadPage into
// a warmed PageBatch, over the table's page list, allocates nothing,
// neither per row nor per page — ints are decoded unboxed, so reading
// the id column, whose values would box, costs the same as leaving it
// out, and a page pin is a value handle on a pool frame header.
func TestScanAllocationsArePerPage(t *testing.T) {
	const n = 10_000
	tbl := intTable(t, n, 256)
	ids, _ := tbl.PageIDs()
	scan := func(need []bool) func() {
		var pb PageBatch
		return func() {
			rows := 0
			for _, id := range ids {
				batch, err := tbl.ReadPage(id, &pb, need)
				if err != nil {
					t.Fatal(err)
				}
				rows += batch.Len
			}
			if rows != n {
				t.Fatalf("scanned %d rows, want %d", rows, n)
			}
		}
	}
	if got := testing.AllocsPerRun(5, scan(nil)); got != 0 {
		t.Fatalf("full scan of %d pages: %.0f allocations, want none", len(ids), got)
	}
	if got := testing.AllocsPerRun(5, scan([]bool{false, true})); got != 0 {
		t.Fatalf("scan of the small column over %d pages: %.0f allocations, want none", len(ids), got)
	}
}

// TestPageListCostsNoPageFetch: PageIDs and NewMorselSource read the
// heap's own list.
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
}

// TestEveryWalkReadsThePageList: every walk of a heap reads its page
// list, and the list is the chain the on-page next pointers link. Over
// a table of several pages interleaved with another table's, fresh and
// reopened (OpenHeap builds the list by following the pointers), Pages,
// HeapFile.Scan, HeapCursor, ScanBatches and a morsel source all yield
// the chain's pages in chain order and its records in slot order.
func TestEveryWalkReadsThePageList(t *testing.T) {
	const n = 3000
	pool := store.NewBufferPool(store.NewMemPager(), 16)
	fresh, err := Create(pool, Schema{Name: "ints", Cols: []string{"id", "small"}})
	if err != nil {
		t.Fatal(err)
	}
	other, err := Create(pool, Schema{Name: "other", Cols: []string{"s"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := fresh.Insert(Row{core.Int(i), core.Int(i % 7)}); err != nil {
			t.Fatal(err)
		}
		if _, err := other.Insert(Row{core.Str(strings.Repeat("x", 40))}); err != nil {
			t.Fatal(err)
		}
	}
	reopened, err := Open(pool, fresh.Table().Schema(), fresh.Table().FirstPage())
	if err != nil {
		t.Fatal(err)
	}
	for name, tbl := range map[string]*Table{"fresh": fresh.Table(), "reopened": reopened} {
		// The oracle follows the next pointers from the first page.
		var chain []store.PageID
		var rids []store.RID
		perPage := map[store.PageID]int{}
		for id := tbl.FirstPage(); id != store.InvalidPage; {
			fr, err := pool.Page(id)
			if err != nil {
				t.Fatal(err)
			}
			p := store.SlottedPage(fr.Data())
			chain = append(chain, id)
			p.Each(func(slot int, _ []byte) bool {
				rids = append(rids, store.RID{Page: id, Slot: uint16(slot)})
				perPage[id]++
				return true
			})
			id = p.Next()
			fr.Unpin()
		}
		if len(chain) < 3 || len(rids) != n {
			t.Fatalf("%s: %d pages, %d records; want ≥ 3 pages and %d records", name, len(chain), len(rids), n)
		}
		same := func(walk string, got any, want any) {
			t.Helper()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: %s yields %v,\nthe chain %v", name, walk, got, want)
			}
		}
		same("Pages", tbl.heap.Pages(), chain)

		var scanned []store.RID
		if err := tbl.heap.Scan(func(rid store.RID, _ []byte) bool {
			scanned = append(scanned, rid)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		same("HeapFile.Scan", scanned, rids)

		var pulled []store.RID
		for cur := tbl.heap.NewCursor(); ; {
			rid, _, ok, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			pulled = append(pulled, rid)
		}
		same("HeapCursor", pulled, rids)

		var batched []store.PageID
		var batchRows []int
		if err := tbl.ScanBatches(func(id store.PageID, rows []Row) (bool, error) {
			batched = append(batched, id)
			batchRows = append(batchRows, len(rows))
			return true, nil
		}); err != nil {
			t.Fatal(err)
		}
		same("ScanBatches", batched, chain)

		// A morsel is one page's rows; ids run 0..n-1 in insertion order,
		// so morsel i holds the rows of the chain's page i.
		var dealt []int
		next := 0
		src := tbl.NewMorselSource()
		src.Bind()
		var pb PageBatch
		for {
			b, err := src.Next(&pb, nil)
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			for i := 0; i < b.Len; i++ {
				if got := b.Cols[0].Value(i); !core.Equal(got, core.Int(next)) {
					t.Fatalf("%s: morsel row holds id %v, want %d", name, got, next)
				}
				next++
			}
			dealt = append(dealt, b.Len)
		}
		src.Release()
		want := make([]int, len(chain))
		for i, id := range chain {
			want[i] = perPage[id]
		}
		same("ScanBatches' page sizes", batchRows, want)
		same("MorselSource's page sizes", dealt, want)
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
				rows += page.Len
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
