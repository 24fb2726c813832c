package dist

import (
	"context"
	"sort"
	"testing"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/fed"
	"xst/internal/table"
	"xst/internal/workload"
	"xst/internal/xtest"
)

// buildCluster loads a users/orders dataset into nSites partitions:
// users hash-partitioned on id, orders hash-partitioned on uid (so
// CoLocated is valid for the uid = id join).
func buildCluster(t testing.TB, nSites, users, orders int) *Cluster {
	t.Helper()
	c := NewCluster(nSites, 128)
	if err := c.CreateTable(workload.UsersSchema()); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable(workload.OrdersSchema()); err != nil {
		t.Fatal(err)
	}
	r := xtest.NewRand(11)
	for i := 0; i < users; i++ {
		row := table.Row{core.Int(i), core.Str("city-" + string(rune('a'+r.Intn(5)))), core.Int(r.Intn(100))}
		if err := c.InsertHash("users", 0, row); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < orders; i++ {
		row := table.Row{core.Int(i), core.Int(r.Intn(users)), core.Int(r.Intn(1000))}
		if err := c.InsertHash("orders", 1, row); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestClusterBasics(t *testing.T) {
	c := buildCluster(t, 4, 200, 600)
	if c.Count("users") != 200 || c.Count("orders") != 600 {
		t.Fatalf("counts = %d/%d", c.Count("users"), c.Count("orders"))
	}
	// Hash partitioning spreads rows: no site owns everything.
	for _, s := range c.Sites {
		u, _ := s.Table("users")
		if u.Count() == 0 || u.Count() == 200 {
			t.Fatalf("site %d owns %d users", s.ID, u.Count())
		}
	}
	// Duplicate table creation fails.
	if _, err := c.Sites[0].CreateTable(workload.UsersSchema()); err == nil {
		t.Fatal("duplicate CreateTable must fail")
	}
	if _, ok := c.Sites[0].Table("nope"); ok {
		t.Fatal("absent table lookup must fail")
	}
}

func TestInsertRoundRobin(t *testing.T) {
	c := NewCluster(3, 32)
	if err := c.CreateTable(workload.UsersSchema()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := c.InsertRoundRobin("users", i, table.Row{core.Int(i), core.Str("x"), core.Int(0)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range c.Sites {
		u, _ := s.Table("users")
		if u.Count() != 3 {
			t.Fatalf("site %d owns %d rows, want 3", s.ID, u.Count())
		}
	}
	if err := c.InsertRoundRobin("nope", 0, table.Row{}); err == nil {
		t.Fatal("insert into absent table must fail")
	}
	if err := NewCluster(1, 8).InsertHash("nope", 0, table.Row{core.Int(1)}); err == nil {
		t.Fatal("hash insert into absent table must fail")
	}
}

func TestScatterRestrict(t *testing.T) {
	c := buildCluster(t, 3, 300, 0)
	c.Net.Reset()
	rows, err := c.ScatterRestrict(context.Background(), "users",
		func(r table.Row) bool { return core.Equal(r[1], core.Str("city-a")) }, "city-a")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !core.Equal(r[1], core.Str("city-a")) {
			t.Fatalf("leaked row %v", r)
		}
	}
	// Every site ships exactly once.
	if st := c.Net.Stats(); st.Messages != 3 {
		t.Fatalf("messages = %d, want 3", st.Messages)
	}
	if _, err := c.ScatterRestrict(context.Background(), "nope", nil, ""); err == nil {
		t.Fatal("scatter over absent table must fail")
	}
}

func rowsFingerprint(rows []table.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = string(table.EncodeRow(nil, r))
	}
	sort.Strings(out)
	return out
}

func TestAllStrategiesAgree(t *testing.T) {
	c := buildCluster(t, 4, 150, 500)
	spec := JoinSpec{
		Left: "orders", Right: "users",
		LeftCol: 1, RightCol: 0,
		LeftPred:     func(r table.Row) bool { return core.Compare(r[2], core.Int(500)) < 0 },
		LeftPredName: "amount<500",
	}
	var want []string
	for _, strat := range []fed.Strategy{fed.ShipAll, fed.Broadcast, fed.SemiJoin, fed.CoLocated} {
		rows, err := c.Join(context.Background(), spec, strat)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		got := rowsFingerprint(rows)
		if want == nil {
			want = got
			if len(want) == 0 {
				t.Fatal("join produced no rows; workload degenerate")
			}
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%v produced %d rows, want %d", strat, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v row %d differs", strat, i)
			}
		}
	}
}

func TestSemijoinShipsLess(t *testing.T) {
	c := buildCluster(t, 4, 400, 2000)
	// Highly selective left predicate: semijoin should ship far less of
	// the right table than ship-all.
	spec := JoinSpec{
		Left: "orders", Right: "users",
		LeftCol: 1, RightCol: 0,
		LeftPred:     func(r table.Row) bool { return core.Compare(r[2], core.Int(20)) < 0 },
		LeftPredName: "amount<20",
	}
	c.Net.Reset()
	if _, err := c.Join(context.Background(), spec, fed.ShipAll); err != nil {
		t.Fatal(err)
	}
	shipAll := c.Net.Stats()

	c.Net.Reset()
	if _, err := c.Join(context.Background(), spec, fed.SemiJoin); err != nil {
		t.Fatal(err)
	}
	semi := c.Net.Stats()

	if semi.Bytes >= shipAll.Bytes {
		t.Fatalf("semijoin shipped %d bytes, ship-all %d: no reduction", semi.Bytes, shipAll.Bytes)
	}
}

func TestCoLocatedShipsOnlyResults(t *testing.T) {
	c := buildCluster(t, 4, 200, 800)
	spec := JoinSpec{Left: "orders", Right: "users", LeftCol: 1, RightCol: 0}

	c.Net.Reset()
	rows, err := c.Join(context.Background(), spec, fed.CoLocated)
	if err != nil {
		t.Fatal(err)
	}
	co := c.Net.Stats()

	c.Net.Reset()
	if _, err := c.Join(context.Background(), spec, fed.ShipAll); err != nil {
		t.Fatal(err)
	}
	all := c.Net.Stats()

	// Co-located ships one result set per site.
	if co.Messages != uint64(len(c.Sites)) {
		t.Fatalf("co-located messages = %d, want %d", co.Messages, len(c.Sites))
	}
	if len(rows) != 800 {
		t.Fatalf("joined rows = %d, want 800", len(rows))
	}
	// And must not ship base-table bytes twice like ship-all does.
	if co.Bytes >= all.Bytes+1 && all.Bytes > 0 {
		t.Logf("co-located %d bytes vs ship-all %d bytes", co.Bytes, all.Bytes)
	}
}

func TestBroadcastCostsScaleWithSites(t *testing.T) {
	spec := JoinSpec{Left: "orders", Right: "users", LeftCol: 1, RightCol: 0}
	measure := func(nSites int) uint64 {
		c := buildCluster(t, nSites, 100, 300)
		c.Net.Reset()
		if _, err := c.Join(context.Background(), spec, fed.Broadcast); err != nil {
			t.Fatal(err)
		}
		return c.Net.Stats().Bytes
	}
	if b2, b6 := measure(2), measure(6); b6 <= b2 {
		t.Fatalf("broadcast bytes must grow with sites: %d (2 sites) vs %d (6 sites)", b2, b6)
	}
}

func TestUnknownStrategy(t *testing.T) {
	c := buildCluster(t, 2, 10, 10)
	if _, err := c.Join(context.Background(), JoinSpec{Left: "orders", Right: "users"}, fed.Strategy(99)); err == nil {
		t.Fatal("unknown strategy must fail")
	}
	if s := fed.Strategy(99).String(); s == "" {
		t.Fatal("strategy string")
	}
}

func TestDistributedMatchesSingleNode(t *testing.T) {
	// The distributed join over 4 sites equals a single-node hash join on
	// the union of partitions.
	c := buildCluster(t, 4, 120, 480)
	spec := JoinSpec{Left: "orders", Right: "users", LeftCol: 1, RightCol: 0}
	distRows, err := c.Join(context.Background(), spec, fed.SemiJoin)
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild single-node tables from the partitions.
	single := NewSite(99, 256)
	users, _ := single.CreateTable(workload.UsersSchema())
	orders, _ := single.CreateTable(workload.OrdersSchema())
	for _, s := range c.Sites {
		u, _ := s.Table("users")
		rows, err := collectLocal(context.Background(), u, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			users.Insert(r)
		}
		o, _ := s.Table("orders")
		rows, err = collectLocal(context.Background(), o, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			orders.Insert(r)
		}
	}
	localRows, err := exec.Collect(context.Background(),
		exec.NewHashJoin(exec.NewScan(orders, nil), exec.NewScan(users, nil), 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	a, b := rowsFingerprint(distRows), rowsFingerprint(localRows)
	if len(a) != len(b) {
		t.Fatalf("distributed %d rows vs single-node %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs", i)
		}
	}
}

// TestChooseStrategyAgreesWithMeasurement: on a real cluster workload,
// the chooser's pick is within a small factor of the best measured
// strategy's bytes.
func TestChooseStrategyAgreesWithMeasurement(t *testing.T) {
	c := buildCluster(t, 4, 400, 2000)
	spec := JoinSpec{
		Left: "orders", Right: "users", LeftCol: 1, RightCol: 0,
		LeftPred:     func(r table.Row) bool { return core.Compare(r[2], core.Int(20)) < 0 },
		LeftPredName: "amount<20",
	}
	measured := map[fed.Strategy]uint64{}
	var rows int
	for _, s := range []fed.Strategy{fed.ShipAll, fed.Broadcast, fed.SemiJoin} {
		c.Net.Reset()
		got, err := c.Join(context.Background(), spec, s)
		if err != nil {
			t.Fatal(err)
		}
		rows = len(got)
		measured[s] = c.Net.Stats().Bytes
	}
	in := fed.CostInputs{
		LeftRows: 2000, RightRows: 400,
		LeftRowBytes: 15, RightRowBytes: 20, KeyBytes: 3,
		LeftSelectivity: 0.02, Sites: 4, JoinRows: rows,
	}
	pick := fed.ChooseStrategy(in)
	best := fed.ShipAll
	for s, b := range measured {
		if b < measured[best] {
			best = s
		}
	}
	if measured[pick] > 3*measured[best] {
		t.Fatalf("chooser picked %v (%d bytes), best was %v (%d bytes)",
			pick, measured[pick], best, measured[best])
	}
}
