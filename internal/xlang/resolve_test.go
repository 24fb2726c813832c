package xlang

import (
	"context"
	"errors"
	"testing"

	"xst/internal/core"
	"xst/internal/plan"
	"xst/internal/store"
	"xst/internal/table"
)

// TestIdentifierResolutionOrder: a variable, else a table of the
// statement's read snapshot as a set, else the symbol. The snapshot is
// pinned once per statement — by a query before it compiles, by an
// expression only when an identifier reaches the resolver — and
// released when the statement ends, whether it succeeds, fails or is
// cancelled.
func TestIdentifierResolutionOrder(t *testing.T) {
	pool := store.NewBufferPool(store.NewMemPager(), 4)
	a, err := table.Create(pool, table.Schema{Name: "t", Cols: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	tbl := a.Table()
	cat := &plan.Catalog{Tables: map[string]*table.Table{"t": tbl}}
	tSet := core.S(core.Tuple(core.Int(1)), core.Tuple(core.Int(2)))
	pins, resolves := 0, 0
	var cancel context.CancelFunc = func() {}
	read := func() ReadTxn { pins++; return ReadTxn{View: pool.NewView(), Snap: cat} }
	env := NewEnv()
	env.BindReader(read, func(name string, got *table.Table, view *store.View) (*core.Set, error) {
		resolves++
		if name != "t" || got != tbl || view == nil || view.Pool() != pool {
			t.Fatalf("resolver asked for %q (%p) under view %v, want t (%p) under a view of its pool", name, got, view, tbl)
		}
		cancel()
		return tSet, nil
	})

	cases := []struct {
		src, want      string
		cancels        bool
		pins, resolves int
	}{
		{src: "{1, 2}", want: "{1, 2}"},
		{src: "card(t)", want: "2", pins: 1, resolves: 1},
		{src: "<t, t, x, y>", want: `<{<1>, <2>},{<1>, <2>},"x","y">`, pins: 1, resolves: 2},
		{src: "x", want: `"x"`, pins: 1},
		{src: "from t", want: "{}", pins: 1},
		{src: "card(t) + {1}", want: "error", pins: 1, resolves: 1},
		{src: "from nosuch", want: "error", pins: 1},
		{src: "<t, t>", want: "canceled", cancels: true, pins: 1, resolves: 1},
		{src: "t := {9}", want: "{9}"},
		{src: "t", want: "{9}"},
	}
	for _, c := range cases {
		pins, resolves = 0, 0
		ctx := context.Background()
		if c.cancels {
			ctx, cancel = context.WithCancel(ctx)
		}
		v, err := EvalCtx(ctx, env, c.src)
		cancel = func() {}
		got := "error"
		switch {
		case errors.Is(err, context.Canceled):
			got = "canceled"
		case err == nil:
			got = v.String()
		}
		if got != c.want || pins != c.pins || resolves != c.resolves {
			t.Fatalf("%s = %s (%v) with %d pins and %d resolutions, want %s, %d, %d",
				c.src, got, err, pins, resolves, c.want, c.pins, c.resolves)
		}
		if held := pool.ActivePins(); len(held) != 0 {
			t.Fatalf("%s left %d snapshot epochs pinned", c.src, len(held))
		}
	}

	// Without a resolver a table name is a symbol, and only a query pins.
	pins = 0
	bare := NewEnv()
	bare.BindReader(read, nil)
	if v, err := Eval(bare, "t"); err != nil || !core.Equal(v, core.Str("t")) || pins != 0 {
		t.Fatalf("t without a resolver = %v, %v after %d pins", v, err, pins)
	}
	if _, err := Eval(bare, "from t"); err != nil || pins != 1 || len(pool.ActivePins()) != 0 {
		t.Fatalf("from t without a resolver: %v after %d pins, %d left pinned", err, pins, len(pool.ActivePins()))
	}
}
