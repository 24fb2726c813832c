package catalog

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"xst/internal/core"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/xlang"
)

// Table names as sets: BindAll materialises nothing; an identifier that
// names a table of the statement's snapshot is that version's extended
// set (tableSet), built on first use and shared.

func usersDB(t testing.TB, n int) *Database {
	t.Helper()
	db, err := Create(store.NewMemPager(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(usersSchema()); err != nil {
		t.Fatal(err)
	}
	if err := db.Load(context.Background(), "users", userRows(0, n)); err != nil {
		t.Fatal(err)
	}
	return db
}

func userRows(from, n int) []table.Row {
	rows := make([]table.Row, n)
	for i := range rows {
		rows[i] = table.Row{core.Int(from + i), core.Str(fmt.Sprintf("user-%d", from+i))}
	}
	return rows
}

func evalString(t *testing.T, env *xlang.Env, src string) string {
	t.Helper()
	v, err := xlang.Eval(env, src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return v.String()
}

func TestTableNamesResolveInTheStatementSnapshot(t *testing.T) {
	db := usersDB(t, 3)
	ctx := context.Background()
	env := xlang.NewEnv()
	if err := db.BindAll(env); err != nil {
		t.Fatal(err)
	}
	if len(db.sets) != 0 {
		t.Fatalf("BindAll materialised %d tables", len(db.sets))
	}
	if got := evalString(t, env, "card(users)"); got != "3" {
		t.Fatalf("card(users) = %s, want 3", got)
	}

	// A commit after the bind is seen by the next statement, and the
	// superseded version's set is dropped when the name is resolved.
	if err := db.Load(ctx, "users", userRows(3, 1)); err != nil {
		t.Fatal(err)
	}
	if got := evalString(t, env, "card(users)"); got != "4" {
		t.Fatalf("card(users) after a commit = %s, want 4", got)
	}
	cur, _ := db.Table("users")
	if e := db.sets["users"]; len(db.sets) != 1 || e.t != cur {
		t.Fatalf("memo holds %d entries, users entry at the published version: %v", len(db.sets), e != nil && e.t == cur)
	}

	// A table created after the bind resolves.
	if _, err := db.CreateTable(table.Schema{Name: "later", Cols: []string{"x"}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Load(ctx, "later", []table.Row{{core.Int(7)}, {core.Int(8)}}); err != nil {
		t.Fatal(err)
	}
	if got := evalString(t, env, "later"); got != "{<7>, <8>}" {
		t.Fatalf("later = %s", got)
	}

	// Session bindings shadow tables; other sessions still see the table.
	other := env.Clone()
	if got := evalString(t, env, "users := {1}"); got != "{1}" {
		t.Fatalf("users := {1} → %s", got)
	}
	if got := evalString(t, env, "card(users)"); got != "1" {
		t.Fatalf("shadowed card(users) = %s, want 1", got)
	}
	if got := evalString(t, other, "card(users)"); got != "4" {
		t.Fatalf("clone's card(users) = %s, want 4", got)
	}

	// Reserved names stay symbols: __meta is a stored table but not in
	// the snapshot, __sys.* are virtual tables for `from` only.
	for _, name := range []string{metaTable, "__sys.tables", "__sys.indexes", "nosuchtable"} {
		if got := evalString(t, other, name+` = "`+name+`"`); got != "true" {
			t.Fatalf("%s is not the symbol %q", name, name)
		}
	}
}

// TestOneStatementOneVersion commits between two mentions of a table in
// one statement: both read the version the first mention pinned, and
// the next statement reads the commit.
func TestOneStatementOneVersion(t *testing.T) {
	db := usersDB(t, 3)
	env := xlang.NewEnv()
	if err := db.BindAll(env); err != nil {
		t.Fatal(err)
	}
	commits := 0
	env.BindTableResolver(func(name string, tab *table.Table) (*core.Set, error) {
		s, err := db.tableSet(name, tab)
		if commits < 2 {
			commits++
			if err := db.Load(context.Background(), "users", userRows(2+commits, 1)); err != nil {
				t.Fatal(err)
			}
		}
		return s, err
	})
	if got := evalString(t, env, "<card(users), card(users)>"); got != "<3,3>" {
		t.Fatalf("two mentions across a commit = %s, want <3,3>", got)
	}
	if got := evalString(t, env, "users = users"); got != "true" {
		t.Fatalf("users = users across a commit = %s", got)
	}
	if got := evalString(t, env, "card(users)"); got != "5" {
		t.Fatalf("next statement = %s, want 5", got)
	}
}

// TestConcurrentResolutionBuildsOnce has four sessions resolve one
// table at once; they must share one build (one *core.Set). Run under
// -race in CI.
func TestConcurrentResolutionBuildsOnce(t *testing.T) {
	db := usersDB(t, 2_000)
	base := xlang.NewEnv()
	if err := db.BindAll(base); err != nil {
		t.Fatal(err)
	}
	const sessions = 4
	got := make([]core.Value, sessions)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		env := base.Clone()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, err := xlang.Eval(env, "users")
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < sessions; i++ {
		if got[i] != got[0] {
			t.Fatalf("session %d resolved users to a different set than session 0: built more than once", i)
		}
	}
	tab, _ := db.Table("users")
	want, err := tab.ToXST()
	if err != nil {
		t.Fatal(err)
	}
	if !core.Equal(got[0], want) {
		t.Fatal("the memoised set differs from ToXST")
	}
}

// TestTableSetIsToXST checks the memo against its oracle across commits,
// and pins the superseded-version and allocation contracts.
func TestTableSetIsToXST(t *testing.T) {
	db := usersDB(t, 500)
	ctx := context.Background()
	old, _ := db.Table("users")
	oldSet, err := db.tableSet("users", old)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if err := db.Load(ctx, "users", userRows(500+round*300, 300)); err != nil {
			t.Fatal(err)
		}
		tab, _ := db.Table("users")
		got, err := db.tableSet("users", tab)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tab.ToXST()
		if err != nil {
			t.Fatal(err)
		}
		if !core.Equal(got, want) || core.Card(got) != 800+round*300 {
			t.Fatalf("round %d: tableSet has %d members, ToXST %d", round, core.Card(got), core.Card(want))
		}
		if again, _ := db.tableSet("users", tab); again != got {
			t.Fatalf("round %d: a second resolution rebuilt the set", round)
		}
	}
	if core.Card(oldSet) != 500 {
		t.Fatalf("a set handed out before the commits changed: %d members", core.Card(oldSet))
	}
	// The first version's entry is gone and its pages moved on.
	if _, err := db.tableSet("users", old); !errors.Is(err, errSuperseded) {
		t.Fatalf("resolving a superseded, dropped version: %v, want errSuperseded", err)
	}

	tab, _ := db.Table("users")
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := db.tableSet("users", tab); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a memoised resolution allocates %.1f objects, want 0", allocs)
	}
}

// TestTableSetReadsItsVersion builds a version's set while a writer
// commits into the same table: the set holds exactly the rows published
// when its entry was made.
func TestTableSetReadsItsVersion(t *testing.T) {
	db := usersDB(t, 1_000)
	tab, _ := db.Table("users")
	e, err := db.versionEntry("users", tab)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Load(context.Background(), "users", userRows(1_000, 500)); err != nil {
		t.Fatal(err)
	}
	s, err := db.tableSet("users", tab)
	if err != nil {
		t.Fatal(err)
	}
	if e.s != s || core.Card(s) != 1_000 {
		t.Fatalf("version built after a commit has %d members, want its own 1000", core.Card(s))
	}
}

// TestTableSetPinsItsVersionUnderCommits resolves the published version
// of a table while a writer commits into it: every set built must hold
// its own version's rows, never a later commit's. A version superseded
// before its entry was made may fail with errSuperseded.
func TestTableSetPinsItsVersionUnderCommits(t *testing.T) {
	db := usersDB(t, 20)
	ctx := context.Background()
	var mu sync.Mutex
	want := map[*table.Table]int{}
	record := func() {
		tab, err := db.Table("users")
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		want[tab] = tab.Count()
		mu.Unlock()
	}
	record()

	type built struct {
		tab  *table.Table
		card int
	}
	const readers, loads = 2, 400
	got := make([][]built, readers)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				tab, err := db.Table("users")
				if err != nil {
					t.Error(err)
					return
				}
				s, err := db.tableSet("users", tab)
				if errors.Is(err, errSuperseded) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				got[r] = append(got[r], built{tab, core.Card(s)})
			}
		}()
	}
	// Only this goroutine commits, so the version current after each
	// Load is that Load's, and its count is the committed row count.
	for i := 0; i < loads; i++ {
		if err := db.Load(ctx, "users", userRows(20+i, 1)); err != nil {
			t.Fatal(err)
		}
		record()
	}
	close(done)
	wg.Wait()

	n := 0
	for _, bs := range got {
		for _, b := range bs {
			n++
			if w, ok := want[b.tab]; !ok || b.card != w {
				t.Fatalf("a version's set has %d members, want its own %d", b.card, w)
			}
		}
	}
	t.Logf("%d sets built over %d versions", n, loads+1)
}

func BenchmarkBindAll(b *testing.B) {
	db := usersDB(b, 20_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.BindAll(xlang.NewEnv()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyze(b *testing.B) {
	db := usersDB(b, 20_000)
	ctx := context.Background()
	if _, err := db.CreateIndex(ctx, "users", "id", IndexHash); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Analyze(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
