package tableio

import (
	"bytes"
	"strings"
	"testing"

	"xst/internal/core"
	"xst/internal/store"
	"xst/internal/table"
)

func newPool() *store.BufferPool {
	return store.NewBufferPool(store.NewMemPager(), 32)
}

func sampleTable(t *testing.T) *table.Table {
	t.Helper()
	tbl, err := table.Create(newPool(), table.Schema{
		Name: "people", Cols: []string{"id", "name", "score", "active", "tags"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []table.Row{
		{core.Int(1), core.Str("ada"), core.Float(9.5), core.Bool(true),
			core.S(core.Str("math"), core.Str("cs"))},
		{core.Int(2), core.Str("bob"), core.Float(7.25), core.Bool(false),
			core.Empty()},
	}
	for _, r := range rows {
		if _, err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl.Table()
}

func rowsEqual(t *testing.T, a, b *table.Table) {
	t.Helper()
	var ra, rb []table.Row
	a.Scan(func(_ store.RID, r table.Row) (bool, error) { ra = append(ra, r.Clone()); return true, nil })
	b.Scan(func(_ store.RID, r table.Row) (bool, error) { rb = append(rb, r.Clone()); return true, nil })
	if len(ra) != len(rb) {
		t.Fatalf("row counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if len(ra[i]) != len(rb[i]) {
			t.Fatalf("row %d arity differs", i)
		}
		for j := range ra[i] {
			if !core.Equal(ra[i][j], rb[i][j]) {
				t.Fatalf("row %d col %d: %v vs %v", i, j, ra[i][j], rb[i][j])
			}
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := sampleTable(t)
	var buf bytes.Buffer
	if err := ExportCSV(tbl, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "id,name,score,active,tags\n") {
		t.Fatalf("header wrong: %q", out)
	}
	re, err := ImportCSV(newPool(), "people", strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, tbl, re)
}

func TestJSONRoundTrip(t *testing.T) {
	tbl := sampleTable(t)
	var buf bytes.Buffer
	if err := ExportJSON(tbl, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name":"ada"`) {
		t.Fatalf("JSON output wrong: %q", buf.String())
	}
	re, err := ImportJSON(newPool(), tbl.Schema(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, tbl, re)
}

func TestImportCSVTypeInference(t *testing.T) {
	src := "a,b,c,d,e\n42,2.5,true,hello,\"{1, 2}\"\n"
	tbl, err := ImportCSV(newPool(), "t", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var row table.Row
	tbl.Scan(func(_ store.RID, r table.Row) (bool, error) { row = r.Clone(); return false, nil })
	wants := []core.Value{
		core.Int(42), core.Float(2.5), core.Bool(true), core.Str("hello"),
		core.S(core.Int(1), core.Int(2)),
	}
	for i, w := range wants {
		if !core.Equal(row[i], w) {
			t.Fatalf("column %d = %v (%T), want %v", i, row[i], row[i], w)
		}
	}
}

func TestImportCSVTupleField(t *testing.T) {
	src := "pair\n\"<a,b>\"\n"
	tbl, err := ImportCSV(newPool(), "t", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var row table.Row
	tbl.Scan(func(_ store.RID, r table.Row) (bool, error) { row = r.Clone(); return false, nil })
	if !core.Equal(row[0], core.Pair(core.Str("a"), core.Str("b"))) {
		t.Fatalf("tuple field = %v", row[0])
	}
}

func TestImportCSVErrors(t *testing.T) {
	if _, err := ImportCSV(newPool(), "t", strings.NewReader("")); err == nil {
		t.Fatal("empty input must fail (no header)")
	}
	// Ragged record.
	if _, err := ImportCSV(newPool(), "t", strings.NewReader("a,b\n1\n")); err == nil {
		t.Fatal("ragged CSV must fail")
	}
	// Broken set notation.
	if _, err := ImportCSV(newPool(), "t", strings.NewReader("a\n\"{1,\"\n")); err == nil {
		t.Fatal("bad set notation must fail")
	}
}

func TestImportJSONErrors(t *testing.T) {
	sch := table.Schema{Name: "t", Cols: []string{"a"}}
	if _, err := ImportJSON(newPool(), sch, strings.NewReader(`{"b": 1}`)); err == nil {
		t.Fatal("missing column must fail")
	}
	if _, err := ImportJSON(newPool(), sch, strings.NewReader(`{"a": [1]}`)); err == nil {
		t.Fatal("unsupported JSON value must fail")
	}
	if _, err := ImportJSON(newPool(), sch, strings.NewReader(`{bad`)); err == nil {
		t.Fatal("malformed JSON must fail")
	}
}

func TestJSONSetNotationFallback(t *testing.T) {
	sch := table.Schema{Name: "t", Cols: []string{"a"}}
	// A string that merely starts with '{' but is not valid notation
	// falls back to a literal string.
	tbl, err := ImportJSON(newPool(), sch, strings.NewReader(`{"a": "{not a set"}`))
	if err != nil {
		t.Fatal(err)
	}
	var row table.Row
	tbl.Scan(func(_ store.RID, r table.Row) (bool, error) { row = r.Clone(); return false, nil })
	if !core.Equal(row[0], core.Str("{not a set")) {
		t.Fatalf("fallback = %v", row[0])
	}
}
