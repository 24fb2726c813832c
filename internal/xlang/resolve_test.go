package xlang

import (
	"testing"

	"xst/internal/core"
	"xst/internal/plan"
	"xst/internal/store"
	"xst/internal/table"
)

// TestIdentifierResolutionOrder: a variable, else a table of the
// statement's catalog snapshot as a set, else the symbol; the snapshot
// is fetched once per statement, and only when an identifier reaches
// the resolver.
func TestIdentifierResolutionOrder(t *testing.T) {
	tbl, err := table.Create(store.NewBufferPool(store.NewMemPager(), 4), table.Schema{Name: "t", Cols: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	cat := &plan.Catalog{Tables: map[string]*table.Table{"t": tbl}}
	tSet := core.S(core.Tuple(core.Int(1)), core.Tuple(core.Int(2)))
	fetches, resolves := 0, 0
	env := NewEnv()
	env.BindPlanCatalog(func() *plan.Catalog { fetches++; return cat })
	env.BindTableResolver(func(name string, got *table.Table) (*core.Set, error) {
		resolves++
		if name != "t" || got != tbl {
			t.Fatalf("resolver asked for %q (%p), want t (%p)", name, got, tbl)
		}
		return tSet, nil
	})

	cases := []struct {
		src, want         string
		fetches, resolves int
	}{
		{"{1, 2}", "{1, 2}", 0, 0},
		{"card(t)", "2", 1, 1},
		{"<t, t, x, y>", `<{<1>, <2>},{<1>, <2>},"x","y">`, 1, 2},
		{"x", `"x"`, 1, 0},
		{"t := {9}", "{9}", 0, 0},
		{"t", "{9}", 0, 0},
	}
	for _, c := range cases {
		fetches, resolves = 0, 0
		v, err := Eval(env, c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if v.String() != c.want || fetches != c.fetches || resolves != c.resolves {
			t.Fatalf("%s = %s with %d snapshot fetches and %d resolutions, want %s, %d, %d",
				c.src, v, fetches, resolves, c.want, c.fetches, c.resolves)
		}
	}

	// Without a resolver a table name is a symbol, as before.
	bare := NewEnv()
	bare.BindPlanCatalog(func() *plan.Catalog { return cat })
	if v, err := Eval(bare, "t"); err != nil || !core.Equal(v, core.Str("t")) {
		t.Fatalf("t without a resolver = %v, %v", v, err)
	}
}
