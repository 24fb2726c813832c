package catalog

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"xst/internal/core"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/xlang"
)

func usersSchema() table.Schema {
	return table.Schema{Name: "users", Cols: []string{"id", "name"}}
}

func TestCreateAndUse(t *testing.T) {
	db, err := Create(store.NewMemPager(), 32)
	if err != nil {
		t.Fatal(err)
	}
	u, err := db.CreateTable(usersSchema())
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.Table("users")
	if err != nil || got != u {
		t.Fatal("Table lookup failed")
	}
	if err := db.Load(context.Background(), "users", []table.Row{{core.Int(1), core.Str("ada")}}); err != nil {
		t.Fatal(err)
	}
	if got, _ := db.Table("users"); got.Count() != 1 || u.Count() != 0 {
		t.Fatalf("after a load: published %d rows, created version %d, want 1 and 0", got.Count(), u.Count())
	}
	if _, err := db.Table("nope"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("want ErrNoTable, got %v", err)
	}
	if _, err := db.CreateTable(usersSchema()); !errors.Is(err, ErrTableExists) {
		t.Fatalf("want ErrTableExists, got %v", err)
	}
	if _, err := db.CreateTable(table.Schema{Name: metaTable, Cols: []string{"x"}}); err == nil {
		t.Fatal("created a table under the reserved name __meta")
	}
	if names := db.Names(); len(names) != 1 || names[0] != "users" {
		t.Fatalf("Names = %v", names)
	}
}

func TestCreateRequiresEmptyPager(t *testing.T) {
	p := store.NewMemPager()
	p.Allocate()
	if _, err := Create(p, 8); err == nil {
		t.Fatal("Create over non-empty pager must fail")
	}
	if _, err := Open(store.NewMemPager(), 8); err == nil {
		t.Fatal("Open over empty pager must fail")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.pages")
	pager, err := store.OpenFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Create(pager, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(usersSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(table.Schema{Name: "orders", Cols: []string{"oid", "uid"}}); err != nil {
		t.Fatal(err)
	}
	var users, orders []table.Row
	for i := 0; i < 500; i++ {
		users = append(users, table.Row{core.Int(i), core.Str("user")})
		orders = append(orders, table.Row{core.Int(i), core.Int(i % 37)})
	}
	ctx := context.Background()
	if err := db.Load(ctx, "users", users); err != nil {
		t.Fatal(err)
	}
	if err := db.Load(ctx, "orders", orders); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	pager2, err := store.OpenFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Open(pager2, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if names := db2.Names(); len(names) != 2 {
		t.Fatalf("Names after reopen = %v", names)
	}
	u2, err := db2.Table("users")
	if err != nil {
		t.Fatal(err)
	}
	if u2.Count() != 500 {
		t.Fatalf("users count after reopen = %d", u2.Count())
	}
	// Data intact.
	row, err := u2.Get(mustRID(t, u2))
	if err != nil || len(row) != 2 {
		t.Fatalf("row after reopen: %v %v", row, err)
	}
	// Schema intact.
	if u2.Schema().Col("name") != 1 {
		t.Fatalf("schema after reopen = %v", u2.Schema())
	}
	// Loads keep working after reopen.
	if err := db2.Load(ctx, "users", []table.Row{{core.Int(500), core.Str("late")}}); err != nil {
		t.Fatal(err)
	}
	if u3, _ := db2.Table("users"); u3.Count() != 501 {
		t.Fatal("load after reopen failed")
	}
}

// mustRID returns the rid of the first row.
func mustRID(t *testing.T, tb *table.Table) store.RID {
	t.Helper()
	var rid store.RID
	found := false
	tb.Scan(func(r store.RID, _ table.Row) (bool, error) {
		rid, found = r, true
		return false, nil
	})
	if !found {
		t.Fatal("empty table")
	}
	return rid
}

func TestCatalogSetShape(t *testing.T) {
	db, _ := Create(store.NewMemPager(), 16)
	db.CreateTable(usersSchema())
	cs := db.CatalogSet()
	if cs.Len() != 1 {
		t.Fatalf("catalog set = %v", cs)
	}
	entry := cs.Members()[0].Elem
	elems, ok := core.TupleElems(entry)
	if !ok || len(elems) != 3 {
		t.Fatalf("entry shape = %v", entry)
	}
	if !core.Equal(elems[0], core.Str("users")) {
		t.Fatalf("entry name = %v", elems[0])
	}
}

func TestManyTablesCatalogGrowth(t *testing.T) {
	db, _ := Create(store.NewMemPager(), 512)
	for i := 0; i < 50; i++ {
		name := "t" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		if _, err := db.CreateTable(table.Schema{Name: name, Cols: []string{"a", "b", "c"}}); err != nil {
			t.Fatalf("table %d: %v", i, err)
		}
	}
	if len(db.Names()) != 50 {
		t.Fatalf("names = %d", len(db.Names()))
	}
}

func TestMemPersistenceRoundTrip(t *testing.T) {
	// Sync + Open over the same MemPager simulates restart without files.
	pager := store.NewMemPager()
	db, _ := Create(pager, 32)
	db.CreateTable(usersSchema())
	if err := db.Load(context.Background(), "users", []table.Row{{core.Int(7), core.Str("x")}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(pager, 32)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := db2.Table("users")
	if err != nil || u2.Count() != 1 {
		t.Fatalf("reopen over mem pager: %v count=%d", err, u2.Count())
	}
}

func TestBindAll(t *testing.T) {
	db, _ := Create(store.NewMemPager(), 32)
	db.CreateTable(usersSchema())
	err := db.Load(context.Background(), "users", []table.Row{
		{core.Int(1), core.Str("ada")}, {core.Int(2), core.Str("bob")}})
	if err != nil {
		t.Fatal(err)
	}

	env := xlang.NewEnv()
	if err := db.BindAll(env); err != nil {
		t.Fatal(err)
	}
	// The table is now a queryable extended set in the language.
	v, err := xlang.Eval(env, "users[{<1>}]")
	if err != nil {
		t.Fatal(err)
	}
	want := core.S(core.Tuple(core.Str("ada")))
	if !core.Equal(v, want) {
		t.Fatalf("users[{<1>}] = %v, want %v", v, want)
	}
	if v, _ := xlang.Eval(env, "card(users)"); !core.Equal(v, core.Int(2)) {
		t.Fatalf("card(users) = %v", v)
	}
}
