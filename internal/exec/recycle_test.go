package exec_test

import (
	"context"
	"runtime"
	"testing"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/table"
)

// recycledTree is a tree whose operators hold recycled memory, built at
// a degree of parallelism: one worker is the serial tree.
type recycledTree struct {
	name string
	tree func(dop int) exec.Operator
}

// recycledTrees are the operators that take memory off the free lists —
// scans, Gather, Restrict, the join's build and probe, the aggregates
// and Sort — over 700 users and 3 000 orders joined on uid = id.
func recycledTrees(t *testing.T) []recycledTree {
	pool := newPool()
	users := makeUsers(t, pool, 700)
	orders := makeOrders(t, pool, 3000, 700)
	boston := func(r table.Row) bool { return core.Equal(r[1], core.Str("boston")) }
	aggs := []exec.Agg{{Kind: exec.AggCount}, {Kind: exec.AggSum, Col: 1}, {Kind: exec.AggMin, Col: 1}, {Kind: exec.AggMax, Col: 3}}
	scans := func(tbl *table.Table, dop int) []exec.Operator {
		if dop == 1 {
			return []exec.Operator{exec.NewScan(tbl, nil)}
		}
		return morselScans(tbl, dop)
	}
	// gather is the one worker itself, or a Gather over them.
	gather := func(ws []exec.Operator, aux ...exec.Operator) exec.Operator {
		if len(ws) == 1 && len(aux) == 0 {
			return ws[0]
		}
		return exec.NewGather(ws, aux...)
	}
	probes := func(dop int) ([]exec.Operator, *exec.HashBuild) {
		hb := exec.NewHashBuild(scans(users, dop), 0, 700)
		ws := scans(orders, dop)
		for i, w := range ws {
			ws[i] = exec.NewProbeJoin(w, hb, 0)
		}
		return ws, hb
	}
	join := func(dop int) exec.Operator {
		if dop == 1 {
			return exec.NewHashJoin(exec.NewScan(orders, nil), exec.NewScan(users, nil), 0, 0, 700)
		}
		ws, hb := probes(dop)
		return exec.NewGather(ws, hb)
	}
	return []recycledTree{
		{"scan", func(dop int) exec.Operator { return gather(scans(users, dop)) }},
		{"restrict", func(dop int) exec.Operator {
			ws := scans(users, dop)
			for i, w := range ws {
				ws[i] = exec.NewStage(&exec.Restrict{Filter: exec.RowPred(boston), Name: "city=boston"}, w)
			}
			return gather(ws)
		}},
		{"join", join},
		{"groupagg over join", func(dop int) exec.Operator {
			if dop == 1 {
				return exec.NewGroupAgg(join(1), 3, 3, aggs...)
			}
			ws, hb := probes(dop)
			return exec.NewParallelGroupAgg(ws, []exec.Operator{hb}, 3, 3, 3000, aggs...)
		}},
		{"sort over join", func(dop int) exec.Operator { return exec.NewSort(join(dop), 1, true) }},
	}
}

// TestPoisonedTreesKeepAnswers runs every recycling tree at one, two and
// four workers, each tree twice, with released memory poisoned: each
// run answers what the serial tree answered before poison mode, so no
// operator reads memory it has released, and every holder taken is put
// back by Close.
func TestPoisonedTreesKeepAnswers(t *testing.T) {
	ctx := context.Background()
	trees := recycledTrees(t)
	want := make([][]table.Row, len(trees))
	for i, c := range trees {
		var err error
		if want[i], err = exec.Collect(ctx, c.tree(1)); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	restore := exec.SetPoisonRelease()
	for i, c := range trees {
		for _, dop := range []int{1, 2, 4} {
			op := c.tree(dop)
			for range 2 {
				got, err := exec.Collect(ctx, op)
				if err != nil {
					t.Fatalf("%s at %d: %v", c.name, dop, err)
				}
				sameRows(t, got, want[i])
			}
		}
	}
	if live := restore(); live != 0 {
		t.Errorf("%d holders were never put back", live)
	}
}

// TestReadAfterCloseSeesPoison: Close is where memory goes back at the
// latest. The last batch a tree hands out reads poison after Close, for
// every recycling operator at the top.
func TestReadAfterCloseSeesPoison(t *testing.T) {
	ctx := context.Background()
	trees := recycledTrees(t)
	defer exec.SetPoisonRelease()()
	for _, c := range trees {
		for _, dop := range []int{1, 2} {
			op := c.tree(dop)
			if err := op.Open(ctx); err != nil {
				t.Fatal(err)
			}
			var last *table.Batch
			var before []table.Row
			for {
				b, err := op.Next()
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
				last = b
				before, _ = b.AppendRows(before[:0], nil)
			}
			if err := op.Close(); err != nil {
				t.Fatal(err)
			}
			after, _ := last.AppendRows(nil, nil)
			if same(before, after) {
				t.Errorf("%s at %d: the last batch reads %v after Close, as before it", c.name, dop, after[0])
			}
		}
	}
}

// same reports whether two row lists are equal, row by row.
func same(a, b []table.Row) bool {
	for i := range a {
		if !core.Equal(a[i].Tuple(), b[i].Tuple()) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestHoldersNeverShared: closing a tree twice, re-opening it, and
// running two copies of it interleaved never hands one holder to two
// operators or puts one back twice — poison mode panics on either — and
// every run answers the same rows.
func TestHoldersNeverShared(t *testing.T) {
	ctx := context.Background()
	trees := recycledTrees(t)
	restore := exec.SetPoisonRelease()
	for _, c := range trees {
		for _, dop := range []int{1, 2} {
			op := c.tree(dop)
			want, err := exec.Collect(ctx, op)
			if err != nil {
				t.Fatal(err)
			}
			if err := op.Close(); err != nil { // a second Close
				t.Fatal(err)
			}
			if err := op.Open(ctx); err != nil { // Open → Close → Open
				t.Fatal(err)
			}
			if err := op.Close(); err != nil {
				t.Fatal(err)
			}
			a, b := c.tree(dop), c.tree(dop)
			for _, o := range []exec.Operator{a, b} {
				if err := o.Open(ctx); err != nil {
					t.Fatal(err)
				}
			}
			var got [2][]table.Row
			for done := 0; done < 2; {
				done = 0
				for k, o := range []exec.Operator{a, b} {
					batch, err := o.Next()
					if err != nil {
						t.Fatal(err)
					}
					if batch == nil {
						done++
						continue
					}
					got[k], _ = batch.AppendRows(got[k], nil)
				}
			}
			for k, o := range []exec.Operator{a, b} {
				if err := o.Close(); err != nil {
					t.Fatal(err)
				}
				sameRows(t, got[k], want)
			}
		}
	}
	if live := restore(); live != 0 {
		t.Errorf("%d holders were never put back", live)
	}
}

// intBatches hands out fixed batches of int columns, never rewritten,
// so it allocates nothing per run.
type intBatches struct {
	batches []*table.Batch
	pos     int
}

// newIntBatches deals n rows (i % mod, i) to k leaves, as batches of
// 1 000 rows.
func newIntBatches(n, mod, k int) []exec.Operator {
	ops := make([]exec.Operator, k)
	for i := range ops {
		ops[i] = &intBatches{}
	}
	for lo := 0; lo < n; lo += 1000 {
		b := &table.Batch{Len: min(1000, n-lo), Cols: []table.Col{{Kind: table.ColInt}, {Kind: table.ColInt}}}
		for i := lo; i < lo+b.Len; i++ {
			b.Cols[0].Ints, b.Cols[1].Ints = append(b.Cols[0].Ints, int64(i%mod)), append(b.Cols[1].Ints, int64(i))
		}
		o := ops[lo/1000%k].(*intBatches)
		o.batches = append(o.batches, b)
	}
	return ops
}

func (o *intBatches) Open(ctx context.Context) error { o.pos = 0; return ctx.Err() }
func (o *intBatches) Next() (*table.Batch, error) {
	if o.pos == len(o.batches) {
		return nil, nil
	}
	o.pos++
	return o.batches[o.pos-1], nil
}
func (o *intBatches) Close() error { return nil }
func (o *intBatches) OutSchema() table.Schema {
	return table.Schema{Name: "ints", Cols: []string{"k", "v"}}
}
func (o *intBatches) Stats() exec.OpStats       { return exec.OpStats{} }
func (o *intBatches) Children() []exec.Operator { return nil }
func (o *intBatches) String() string            { return "ints" }

// TestSecondRunAllocatesNoHeldState: a compiled tree run a second time
// takes the hash build, the aggregate states and the batches its first
// run put back, so it allocates a small fixed amount, not the arrays of
// 4 000 build rows and 4 000 groups. The leaves allocate nothing, and
// one processor runs the test: a free list keeps a holder per processor
// that the others cannot take.
func TestSecondRunAllocatesNoHeldState(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector a sync.Pool drops a random share of what is put back")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	aggs := []exec.Agg{{Kind: exec.AggCount}, {Kind: exec.AggSum, Col: 1}}
	for _, dop := range []int{1, 2, 4} {
		probe, build := newIntBatches(40000, 4000, dop), newIntBatches(4000, 4000, dop)
		var op exec.Operator
		if dop == 1 {
			op = exec.NewGroupAgg(exec.NewHashJoin(probe[0], build[0], 0, 0, 4000), 0, 4000, aggs...)
		} else {
			hb := exec.NewHashBuild(build, 0, 4000)
			for i, w := range probe {
				probe[i] = exec.NewProbeJoin(w, hb, 0)
			}
			op = exec.NewParallelGroupAgg(probe, []exec.Operator{hb}, 0, 4000, 40000, aggs...)
		}
		bytes := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if n, err := exec.Count(context.Background(), op); err != nil || n != 4000 {
				t.Fatalf("%d groups, %v", n, err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		runtime.GC()
		runtime.GC() // empty the free lists
		first, second := bytes(), bytes()
		t.Logf("%d workers: first run %d B, second %d B", dop, first, second)
		if budget := uint64(4 << 10); second > budget {
			t.Errorf("%d workers: the second run allocates %d B, budget %d B (the first %d B)", dop, second, budget, first)
		}
	}
}
