package exec_test

import (
	"context"
	"testing"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/xtest"
)

// The ownership rule (see the package comment of exec) under test: a
// batch and its rows are scratch until the producer's next Next, and the
// operators that hold rows longer — Gather, HashBuild, the HashJoin
// build, Sort, Collect — copy them. Every tree below is run twice, once
// as built and once with xtest.PoisonScratch around each scan and join
// probe, which overwrites a batch the moment its successor is asked for.

type leafFunc func(exec.Operator) exec.Operator

// bothWays runs fn with plain leaves and with poisoned ones.
func bothWays(t *testing.T, fn func(t *testing.T, leaf leafFunc)) {
	t.Run("plain", func(t *testing.T) { fn(t, func(op exec.Operator) exec.Operator { return op }) })
	t.Run("poison", func(t *testing.T) {
		fn(t, func(op exec.Operator) exec.Operator { return xtest.PoisonScratch(op) })
	})
}

// tableRows reads a table record by record through DecodeRow — the
// oracle no batch kernel or scratch slab is involved in.
func tableRows(t *testing.T, tbl *table.Table) []table.Row {
	t.Helper()
	var out []table.Row
	if err := tbl.Scan(func(_ store.RID, r table.Row) (bool, error) {
		out = append(out, r)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPoisonScratchPoisons shows the wrapper has teeth: rows kept past
// the pull are overwritten, rows copied in time are not. The operator
// under it is a Sort, which never rewrites a batch it has emitted, so
// what the kept row reads afterwards is the wrapper's doing.
func TestPoisonScratchPoisons(t *testing.T) {
	tbl := makeUsers(t, newPool(), 2*exec.MaxBatchRows)
	op := xtest.PoisonScratch(exec.Operator(exec.NewSort(exec.NewScan(tbl, nil), 0, false)))
	if err := op.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	first, err := op.Next()
	if err != nil || len(first) == 0 {
		t.Fatalf("first batch: %d rows, %v", len(first), err)
	}
	keptRow, keptCopy := first[0], first[0].Clone()
	if _, err := op.Next(); err != nil {
		t.Fatal(err)
	}
	if first[0] != nil {
		t.Fatal("the previous batch's row headers survived the next Next")
	}
	if keptRow[0] != xtest.Poison {
		t.Fatalf("a row kept past its pull reads %v, want the poison", keptRow[0])
	}
	if !core.Equal(keptCopy[0], core.Int(0)) {
		t.Fatalf("a copied row was disturbed: %v", keptCopy)
	}
}

// TestScratchTreesKeepTheirAnswers is the exec-level differential
// suite: each tree must return the rows of its reference, poisoned
// leaves or not.
func TestScratchTreesKeepTheirAnswers(t *testing.T) {
	pool := newPool()
	users := makeUsers(t, pool, 700)
	orders := makeOrders(t, pool, 3000, 700)
	boston := func(r table.Row) bool { return core.Equal(r[1], core.Str("boston")) }
	restrict := func(child exec.Operator) exec.Operator {
		return exec.NewStage(&exec.Restrict{Pred: boston, Name: "city=boston"}, child)
	}
	aggs := []exec.Agg{{Kind: exec.AggCount}, {Kind: exec.AggSum, Col: 1}, {Kind: exec.AggMin, Col: 1}, {Kind: exec.AggMax, Col: 4}}
	morsels := func(leaf leafFunc, tbl *table.Table, n int, need []bool) []exec.Operator {
		src := tbl.NewMorselSource()
		ws := make([]exec.Operator, n)
		for i := range ws {
			ws[i] = leaf(exec.NewMorselScan(src, need))
		}
		return ws
	}
	// probes joins orders (probe) to users (parallel build) on uid = id.
	probes := func(leaf leafFunc, n int) (workers []exec.Operator, hb *exec.HashBuild) {
		hb = exec.NewHashBuild(morsels(leaf, users, n, nil), 0)
		workers = morsels(leaf, orders, n, nil)
		for i, w := range workers {
			workers[i] = leaf(exec.NewProbeJoin(w, hb, 0))
		}
		return workers, hb
	}
	serialJoin := func(leaf leafFunc, buildLeft bool) exec.Operator {
		if buildLeft {
			return leaf(swappedJoin(leaf(exec.NewScan(orders, nil)), leaf(exec.NewScan(users, nil)), 0, 0))
		}
		return leaf(exec.NewHashJoin(leaf(exec.NewScan(orders, nil)), leaf(exec.NewScan(users, nil)), 0, 0))
	}
	plain := func(op exec.Operator) exec.Operator { return op }

	cases := []struct {
		name string
		tree func(leaf leafFunc) exec.Operator
		want func() exec.Operator // nil: the users table itself
	}{
		// The clone path: nothing between the scans and the exchange.
		{"gather over bare scans", func(leaf leafFunc) exec.Operator {
			return exec.NewGather(morsels(leaf, users, 3, nil))
		}, nil},
		{"serial scan", func(leaf leafFunc) exec.Operator { return leaf(exec.NewScan(users, nil)) }, nil},
		{"sort over scan", func(leaf leafFunc) exec.Operator {
			return exec.NewSort(leaf(exec.NewScan(users, nil)), 0, true)
		}, nil},
		{"sort over gather", func(leaf leafFunc) exec.Operator {
			return exec.NewSort(exec.NewGather(morsels(leaf, users, 4, nil)), 2, false)
		}, nil},
		{"restrict under gather", func(leaf leafFunc) exec.Operator {
			ws := morsels(leaf, users, 3, nil)
			for i, w := range ws {
				ws[i] = restrict(w)
			}
			return exec.NewGather(ws)
		}, func() exec.Operator { return restrict(exec.NewScan(users, nil)) }},
		{"project of masked scan under gather", func(leaf leafFunc) exec.Operator {
			ws := morsels(leaf, users, 2, []bool{false, true, false})
			for i, w := range ws {
				ws[i] = exec.NewStage(&exec.Project{Cols: []int{1}}, w)
			}
			return exec.NewGather(ws)
		}, func() exec.Operator {
			return exec.NewStage(&exec.Project{Cols: []int{1}}, exec.NewScan(users, nil))
		}},
		{"hashjoin build right", func(leaf leafFunc) exec.Operator { return serialJoin(leaf, false) },
			func() exec.Operator { return serialJoin(plain, true) }},
		{"hashjoin build left", func(leaf leafFunc) exec.Operator { return serialJoin(leaf, true) },
			func() exec.Operator { return serialJoin(plain, false) }},
		{"probejoin under gather", func(leaf leafFunc) exec.Operator {
			ws, hb := probes(leaf, 3)
			return exec.NewGather(ws, hb)
		}, func() exec.Operator { return serialJoin(plain, false) }},
		{"sort over probejoin", func(leaf leafFunc) exec.Operator {
			ws, hb := probes(leaf, 2)
			return exec.NewSort(exec.NewGather(ws, hb), 1, false)
		}, func() exec.Operator { return serialJoin(plain, false) }},
		{"groupagg over hashjoin", func(leaf leafFunc) exec.Operator {
			return exec.NewGroupAgg(serialJoin(leaf, false), 3, aggs...)
		}, func() exec.Operator { return exec.NewGroupAgg(serialJoin(plain, true), 3, aggs...) }},
		{"parallel groupagg over probejoin", func(leaf leafFunc) exec.Operator {
			ws, hb := probes(leaf, 4)
			return exec.NewParallelGroupAgg(ws, []exec.Operator{hb}, 3, aggs...)
		}, func() exec.Operator { return exec.NewGroupAgg(serialJoin(plain, false), 3, aggs...) }},
	}
	ctx := context.Background()
	for _, c := range cases {
		want := tableRows(t, users)
		if c.want != nil {
			var err error
			if want, err = exec.Collect(ctx, c.want()); err != nil {
				t.Fatalf("%s: reference: %v", c.name, err)
			}
		}
		t.Run(c.name, func(t *testing.T) {
			bothWays(t, func(t *testing.T, leaf leafFunc) {
				got, err := exec.Collect(ctx, c.tree(leaf))
				if err != nil {
					t.Fatal(err)
				}
				sameRows(t, got, want)
			})
		})
	}
}

// TestWarmScanAllocatesPerPageNotPerRow is the allocation budget of the
// parallel scan path: MorselScan → Restrict → count over 10 000 rows of
// ints costs the boxed values and a constant per page — no row, no row
// header, no page list — and with the boxing column left out of the
// needed positions, only the constant.
func TestWarmScanAllocatesPerPageNotPerRow(t *testing.T) {
	const n = 10_000
	tbl, err := table.Create(store.NewBufferPool(store.NewMemPager(), 256), table.Schema{Name: "ints", Cols: []string{"id", "small"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ { // id boxes from 256 up, small never does
		if _, err := tbl.Insert(table.Row{core.Int(i), core.Int(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	ids, _ := tbl.PageIDs()
	ctx := context.Background()
	count := func(need []bool) func() {
		return func() {
			op := exec.NewStage(&exec.Restrict{
				Pred: func(r table.Row) bool { return r[1] != core.Value(core.Int(3)) },
				Name: "small != 3",
			}, exec.NewMorselScan(tbl.NewMorselSource(), need))
			if _, err := exec.Count(ctx, op); err != nil {
				t.Fatal(err)
			}
		}
	}
	const fixed = 40 // operators, the source, Stream's spans, slab growth to the largest page
	perPage := float64(len(ids))
	if got := testing.AllocsPerRun(5, count(nil)); got > float64(n-256)+perPage+fixed {
		t.Fatalf("full decode: %.0f allocations for %d rows on %d pages", got, n, len(ids))
	}
	if got := testing.AllocsPerRun(5, count([]bool{false, true})); got > perPage+fixed {
		t.Fatalf("masked decode: %.0f allocations for %d rows on %d pages, want ≤ %0.f", got, n, len(ids), perPage+fixed)
	}
}
