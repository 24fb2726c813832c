package catalog

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"xst/internal/core"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/wal"
)

var updatePersisted = flag.Bool("update-persisted", false, "rewrite testdata/persisted.golden")

// persisted renders what a database has written to disk: the encoded
// catalog set on page 0, then every __meta row's encoded image, read
// off the pages alone (the __meta table is found through page 0).
func persisted(t *testing.T, db *Database) string {
	t.Helper()
	f, err := db.pool.Page(catalogPage)
	if err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), f.Data()...)
	f.Unpin()
	n := int(raw[0]) | int(raw[1])<<8
	var b strings.Builder
	fmt.Fprintf(&b, "page0 %s\n", hex.EncodeToString(raw[2:2+n]))
	set, err := decodeCatalog(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range set.Members() {
		name, first, _, _, err := decodeEntry(m.Elem)
		if err != nil {
			t.Fatal(err)
		}
		if name != metaTable {
			continue
		}
		mt, err := table.Open(db.pool, metaSchema, first)
		if err != nil {
			t.Fatal(err)
		}
		err = mt.Scan(func(_ store.RID, r table.Row) (bool, error) {
			fmt.Fprintf(&b, "meta %s\n", hex.EncodeToString(table.EncodeRow(nil, r)))
			return true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestPersistedBytesAreUnchanged runs a scripted sequence of every kind
// of commit on a MemPager and compares page 0 and the __meta rows after
// each step with testdata/persisted.golden, so a change to how versions
// are built in memory cannot change what is written. A reopen must read
// back equal names, indexes and statistics. Rewrite the golden with
// `go test ./internal/catalog -run TestPersistedBytesAreUnchanged -update-persisted`
// only for a deliberate format change.
func TestPersistedBytesAreUnchanged(t *testing.T) {
	ctx := context.Background()
	pager, log := store.NewMemPager(), wal.NewMemLog()
	db, err := CreateDurable(pager, log, 64)
	if err != nil {
		t.Fatal(err)
	}
	rows := func(from, n int, tag string) []table.Row {
		out := make([]table.Row, n)
		for i := range out {
			out[i] = table.Row{core.Int(from + i), core.Str(fmt.Sprintf("%s-%d", tag, (from+i)%7))}
		}
		return out
	}
	var got strings.Builder
	step := func(name string, d *Database) {
		fmt.Fprintf(&got, "step %s\n%s", name, persisted(t, d))
	}

	// 1. Two tables, loaded.
	for _, name := range []string{"users", "orders"} {
		if _, err := db.CreateTable(table.Schema{Name: name, Cols: []string{"id", "tag"}}); err != nil {
			t.Fatal(err)
		}
		if err := db.Load(ctx, name, rows(0, 300, name)); err != nil {
			t.Fatal(err)
		}
	}
	step("load", db)

	// 2. A hash and a btree index, then statistics.
	if _, err := db.CreateIndex(ctx, "users", "id", IndexHash); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex(ctx, "orders", "id", IndexBTree); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex(ctx, "orders", "tag", IndexHash); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Analyze(ctx); err != nil {
		t.Fatal(err)
	}
	step("index+analyze", db)

	// 3. A partition, and more rows.
	if err := setPartition(db, "orders", Partition{Kind: PartHash, Col: "id", Site: 0, Sites: 2}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"users", "orders"} {
		if err := db.Load(ctx, name, rows(300, 40, name)); err != nil {
			t.Fatal(err)
		}
	}
	step("partition+load", db)

	// 4. Reopen and read again.
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	db2, _, err := OpenDurable(pager, log, 64)
	if err != nil {
		t.Fatal(err)
	}
	step("reopen", db2)

	if *updatePersisted {
		if err := os.WriteFile("testdata/persisted.golden", []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/persisted.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("persisted bytes differ from testdata/persisted.golden:\n%s", got.String())
	}

	if a, b := db.Names(), db2.Names(); !reflect.DeepEqual(a, b) {
		t.Fatalf("reopened Names %v, want %v", b, a)
	}
	for _, name := range db.Names() {
		a, b := db.Indexes(name), db2.Indexes(name)
		if len(a) != len(b) {
			t.Fatalf("%s: reopened with %d indexes, want %d", name, len(b), len(a))
		}
		for i := range a {
			if a[i].Col != b[i].Col || a[i].Kind != b[i].Kind || indexLen(a[i]) != indexLen(b[i]) {
				t.Fatalf("%s index %d reopened as %s %v (%d), want %s %v (%d)", name, i,
					b[i].Col, b[i].Kind, indexLen(b[i]), a[i].Col, a[i].Kind, indexLen(a[i]))
			}
		}
		sa, oka := db.Stats(name)
		sb, okb := db2.Stats(name)
		if oka != okb || (oka && !core.Equal(sa.Value(), sb.Value())) {
			t.Fatalf("%s: reopened statistics differ", name)
		}
	}
}

// indexLen is the number of entries in an index's built structure.
func indexLen(ix *Index) int {
	if ix.Hash != nil {
		return ix.Hash.Len()
	}
	return ix.BTree.Len()
}
