package fed

import (
	"context"
	"fmt"
	"testing"

	"xst/internal/catalog"
	"xst/internal/core"
	"xst/internal/table"
	"xst/internal/xtest"
)

// The shipping experiments run over real sockets: E11 ranks the join
// strategies by the wire bytes each one moves, and E15 holds the byte
// cost model to the measured best.

// shipData is the shipping workload: users hash-partitioned on id, and
// orders with amount uniform in [0, 1000) placed by part.
func shipData(users, orders int, part *catalog.Partition) func(dbs []*catalog.Database) error {
	r := xtest.NewRand(42)
	u := make([]table.Row, users)
	for i := range u {
		u[i] = table.Row{core.Int(i), core.Str(fmt.Sprintf("u%03d", r.Intn(500))), core.Int(r.Intn(80))}
	}
	o := make([]table.Row, orders)
	for i := range o {
		o[i] = table.Row{core.Int(i), core.Int(r.Intn(users)), core.Int(r.Intn(1000))}
	}
	return func(dbs []*catalog.Database) error {
		if err := CreateSharded(context.Background(), dbs, usersSchema, &catalog.Partition{Kind: catalog.PartHash, Col: "id"}, u); err != nil {
			return err
		}
		return CreateSharded(context.Background(), dbs, ordersSchema, part, o)
	}
}

// bootForced boots an n-site federation forced into one strategy.
func bootForced(tb testing.TB, n int, force string, populate func([]*catalog.Database) error) *LocalFed {
	tb.Helper()
	lf, err := BootLocal(context.Background(), n, Config{ForceStrategy: force}, populate)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { lf.Shutdown(context.Background()) })
	return lf
}

// shipped runs stmt once and returns the wire bytes the run moved and
// the rows it returned.
func shipped(tb testing.TB, lf *LocalFed, stmt string) (uint64, int) {
	tb.Helper()
	q, err := lf.Coord.Compile(stmt)
	if err != nil {
		tb.Fatalf("%s: %v", stmt, err)
	}
	before := lf.Coord.Metrics().BytesShipped.Value()
	rows := 0
	if _, err := q.Run(context.Background(), func(b *table.Batch) error { rows += b.Len; return nil }); err != nil {
		tb.Fatalf("%s: %v", stmt, err)
	}
	return lf.Coord.Metrics().BytesShipped.Value() - before, rows
}

// coPartitioned places orders by hash on uid, so the orders⋈users join
// on uid = id can run co-located.
var coPartitioned = &catalog.Partition{Kind: catalog.PartHash, Col: "uid"}

// TestShippingRanking is E11 at quick scale: a 2 %-selective orders⋈users
// join over 4 sites, each strategy forced in turn. Every strategy
// returns the same rows; semijoin ships fewer bytes than ship-all, and
// co-located, which ships only results, fewer than broadcast.
func TestShippingRanking(t *testing.T) {
	const stmt = "from orders join users on uid = id where amount < 20 select oid, amount, name"
	populate := shipData(400, 2_000, coPartitioned)
	bytes := map[string]uint64{}
	want := -1
	for _, force := range []string{"shipall", "broadcast", "semijoin", "colocated"} {
		b, rows := shipped(t, bootForced(t, 4, force, populate), stmt)
		if want < 0 {
			want = rows
		}
		if rows != want || rows == 0 {
			t.Fatalf("%s returned %d rows, shipall %d", force, rows, want)
		}
		bytes[force] = b
		t.Logf("%-9s %7d bytes, %d rows", force, b, rows)
	}
	if bytes["semijoin"] >= bytes["shipall"] {
		t.Errorf("semijoin shipped %d bytes, ship-all %d: no reduction", bytes["semijoin"], bytes["shipall"])
	}
	if bytes["colocated"] >= bytes["broadcast"] {
		t.Errorf("co-located shipped %d bytes, broadcast %d", bytes["colocated"], bytes["broadcast"])
	}
}

// TestBroadcastBytesGrowWithSites: broadcast ships the build side to
// every probe site, so the same join moves more bytes over 6 sites than
// over 2.
func TestBroadcastBytesGrowWithSites(t *testing.T) {
	const stmt = "from orders join users on uid = id select oid, amount, name"
	populate := shipData(100, 300, coPartitioned)
	b2, _ := shipped(t, bootForced(t, 2, "broadcast", populate), stmt)
	b6, _ := shipped(t, bootForced(t, 6, "broadcast", populate), stmt)
	if b6 <= b2 {
		t.Fatalf("broadcast shipped %d bytes over 6 sites, %d over 2", b6, b2)
	}
}

// BenchmarkShipping is E11 at full scale: 4 000 users ⋈ 20 000 orders
// over 4 sites, 50 % and 2 % selective, under each forced strategy;
// bytes/op is the wire traffic of one query.
func BenchmarkShipping(b *testing.B) {
	populate := shipData(4_000, 20_000, coPartitioned)
	for _, force := range []string{"shipall", "broadcast", "semijoin", "colocated"} {
		lf := bootForced(b, 4, force, populate)
		for _, limit := range []int{500, 20} {
			stmt := fmt.Sprintf("from orders join users on uid = id where amount < %d select oid, amount, name", limit)
			b.Run(fmt.Sprintf("%s/amount<%d", force, limit), func(b *testing.B) {
				var bytes uint64
				for i := 0; i < b.N; i++ {
					n, _ := shipped(b, lf, stmt)
					bytes += n
				}
				b.ReportMetric(float64(bytes)/float64(b.N), "bytes/op")
			})
		}
	}
}

// TestCostModelPicksNearBest is E15 at quick scale: the same join forced
// through ship-all, broadcast and semijoin on 3 sites (orders
// range-partitioned, so co-location does not apply) returns the same
// rows, and the strategy the byte model ranks cheapest moves at most 3×
// the bytes of the measured best.
func TestCostModelPicksNearBest(t *testing.T) {
	populate := shipData(400, 1_600,
		&catalog.Partition{Kind: catalog.PartRange, Col: "oid", Bounds: orderBounds(3, 1_600)})
	const stmt = "from orders join users on uid = id where amount < 100 select oid, amount, name"
	strategies := []struct {
		force string
		strat Strategy
	}{{"shipall", ShipAll}, {"broadcast", Broadcast}, {"semijoin", SemiJoin}}
	measured := map[Strategy]uint64{}
	var in CostInputs
	for _, s := range strategies {
		lf := bootForced(t, 3, s.force, populate)
		b, rows := shipped(t, lf, stmt)
		measured[s.strat] = b
		if in.Sites == 0 {
			// The model's inputs come from the coordinator's sampled
			// metadata; one "<" conjunct is the planner's 0.3, and the
			// join's true cardinality stands in for its estimate.
			o, u := lf.Coord.tables["orders"], lf.Coord.tables["users"]
			sc := lf.Coord.cat.Stats
			in = CostInputs{
				LeftRows: sc["orders"].Rows * 3 / 10, RightRows: sc["users"].Rows,
				LeftRowBytes: o.RowBytes, RightRowBytes: u.RowBytes,
				KeyBytes: 9, Sites: 3, JoinRows: rows,
			}
		} else if rows != in.JoinRows {
			t.Fatalf("%s returned %d rows, shipall %d", s.force, rows, in.JoinRows)
		}
	}
	pick, best := ShipAll, ShipAll
	for _, s := range strategies {
		if EstimateBytes(in, s.strat) < EstimateBytes(in, pick) {
			pick = s.strat
		}
		if measured[s.strat] < measured[best] {
			best = s.strat
		}
		t.Logf("%-9s model %8.0f bytes, measured %7d", s.force, EstimateBytes(in, s.strat), measured[s.strat])
	}
	if measured[pick] > 3*measured[best] {
		t.Fatalf("model picked %v (%d bytes), measured best %v (%d bytes)", pick, measured[pick], best, measured[best])
	}
}

// BenchmarkDistributedSemijoin runs a selective orders⋈users join as a
// semijoin over 4 sites; bytes/op is the wire traffic per query.
func BenchmarkDistributedSemijoin(b *testing.B) {
	const stmt = "from orders join users on uid = id where amount < 50 select oid, amount, name"
	lf := bootForced(b, 4, "semijoin", shipData(500, 2_000, coPartitioned))
	var bytes uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, _ := shipped(b, lf, stmt)
		bytes += n
	}
	b.ReportMetric(float64(bytes)/float64(b.N), "bytes/op")
}
