package catalog

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"xst/internal/core"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/xlang"
)

// Table names as sets: BindAll materialises nothing; an identifier that
// names a table of the statement's snapshot is that table version's
// extended set (Table.SetAt), built on first use and shared.

// setAt resolves a table as the resolver BindAll binds does.
func setAt(_ string, tab *table.Table, view *store.View) (*core.Set, error) {
	return tab.SetAt(view)
}

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
	before := db.Pool().Info()
	if err := db.BindAll(env); err != nil {
		t.Fatal(err)
	}
	if after := db.Pool().Info(); after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("BindAll read %d pages", after.Hits+after.Misses-before.Hits-before.Misses)
	}
	if got := evalString(t, env, "card(users)"); got != "3" {
		t.Fatalf("card(users) = %s, want 3", got)
	}

	// A commit after the bind is seen by the next statement, which reads
	// the published version's own set.
	if err := db.Load(ctx, "users", userRows(3, 1)); err != nil {
		t.Fatal(err)
	}
	if got := evalString(t, env, "card(users)"); got != "4" {
		t.Fatalf("card(users) after a commit = %s, want 4", got)
	}
	rt := db.BeginRead()
	own, err := rt.Snap.Tables["users"].SetAt(rt.View)
	rt.Release()
	if v, _ := xlang.Eval(env, "users"); err != nil || v != own {
		t.Fatalf("users does not resolve to the published version's set (%v)", err)
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
// one statement: both read the version the statement pinned, and the
// next statement reads the commit.
func TestOneStatementOneVersion(t *testing.T) {
	db := usersDB(t, 3)
	env := xlang.NewEnv()
	commits := 0
	env.BindReader(db.BeginRead, func(name string, tab *table.Table, view *store.View) (*core.Set, error) {
		s, err := setAt(name, tab, view)
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

// commitAfterPin binds db into env with a reader that commits one more
// row into users right after it pins each statement's snapshot.
func commitAfterPin(t *testing.T, db *Database, env *xlang.Env) {
	if err := db.BindAll(env); err != nil {
		t.Fatal(err)
	}
	users, err := db.Table("users")
	if err != nil {
		t.Fatal(err)
	}
	next := users.Count()
	env.BindReader(func() ReadTxn {
		rt := db.BeginRead()
		if err := db.Load(context.Background(), "users", userRows(next, 1)); err != nil {
			t.Fatal(err)
		}
		next++
		return rt
	}, setAt)
}

// TestCommitAfterPinReadsThePinnedVersion: a commit between a statement's
// pin and its first table resolution neither fails the statement nor
// shows in it; the next statement sees it.
func TestCommitAfterPinReadsThePinnedVersion(t *testing.T) {
	db := usersDB(t, 4)
	env := xlang.NewEnv()
	commitAfterPin(t, db, env)
	if got := evalString(t, env, "card(users)"); got != "4" {
		t.Fatalf("card(users) with a commit after the pin = %s, want the pinned 4", got)
	}
	if got := evalString(t, env, "card(users)"); got != "5" {
		t.Fatalf("the next statement's card(users) = %s, want 5", got)
	}
}

// TestQueryReadsThePinnedVersion: a `from` statement evaluated as an
// expression runs under the view it pinned with its catalog, so a commit
// right after the pin does not show in its rows.
func TestQueryReadsThePinnedVersion(t *testing.T) {
	db := usersDB(t, 4)
	env := xlang.NewEnv()
	commitAfterPin(t, db, env)
	v, err := xlang.Eval(env, "from users")
	if err != nil {
		t.Fatal(err)
	}
	if n := core.Card(v.(*core.Set)); n != 4 {
		t.Fatalf("from users with a commit after the pin returned %d rows, want the pinned 4", n)
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

// resolve resolves name as a statement does: it pins a snapshot, reads
// the name's version under the snapshot's view, and releases it.
func resolve(db *Database, name string) (*table.Table, *core.Set, error) {
	rt := db.BeginRead()
	defer rt.Release()
	tab := rt.Snap.Tables[name]
	s, err := tab.SetAt(rt.View)
	return tab, s, err
}

// TestTableSetIsToXST checks each version's set against its oracle
// across commits, and pins the superseded-version and allocation
// contracts.
func TestTableSetIsToXST(t *testing.T) {
	db := usersDB(t, 500)
	ctx := context.Background()
	old := db.BeginRead()
	defer old.Release()
	oldTab := old.Snap.Tables["users"]
	oldSet, err := oldTab.SetAt(old.View)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if err := db.Load(ctx, "users", userRows(500+round*300, 300)); err != nil {
			t.Fatal(err)
		}
		tab, got, err := resolve(db, "users")
		if err != nil {
			t.Fatal(err)
		}
		want, err := tab.ToXST()
		if err != nil {
			t.Fatal(err)
		}
		if !core.Equal(got, want) || core.Card(got) != 800+round*300 {
			t.Fatalf("round %d: SetAt has %d members, ToXST %d", round, core.Card(got), core.Card(want))
		}
		if _, again, _ := resolve(db, "users"); again != got {
			t.Fatalf("round %d: a second resolution rebuilt the set", round)
		}
	}
	if core.Card(oldSet) != 500 {
		t.Fatalf("a set handed out before the commits changed: %d members", core.Card(oldSet))
	}
	// A statement still pinned at the first version reads that version's
	// own set again.
	if again, err := oldTab.SetAt(old.View); err != nil || again != oldSet {
		t.Fatalf("resolving a superseded version under its pinned view: %v, %v", again, err)
	}

	rt := db.BeginRead()
	defer rt.Release()
	tab := rt.Snap.Tables["users"]
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := tableSet("users", tab, rt.View); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a warm resolution allocates %.1f objects, want 0", allocs)
	}
}

// TestTableSetReadsItsVersion builds a version's set after a writer
// committed into the same table: built under the view pinned with the
// version, the set holds exactly that version's rows.
func TestTableSetReadsItsVersion(t *testing.T) {
	db := usersDB(t, 1_000)
	rt := db.BeginRead()
	defer rt.Release()
	if err := db.Load(context.Background(), "users", userRows(1_000, 500)); err != nil {
		t.Fatal(err)
	}
	s, err := rt.Snap.Tables["users"].SetAt(rt.View)
	if err != nil {
		t.Fatal(err)
	}
	if core.Card(s) != 1_000 {
		t.Fatalf("version built after a commit has %d members, want its own 1000", core.Card(s))
	}
}

// TestTableSetPinsItsVersionUnderCommits resolves the published version
// of a table, as a statement does, while a writer commits into it: every
// resolution succeeds, and every set holds its own version's rows, never
// a later commit's.
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
				tab, s, err := resolve(db, "users")
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
