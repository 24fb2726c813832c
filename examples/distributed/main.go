// Distributed demonstrates the paper's title claim — extended set
// processing as the model for a *distributed* backend information
// system: one dataset hash-partitioned over four in-process xstd sites,
// the same join run through the federation coordinator under each of
// its four shipping strategies, with the wire bytes each one moves.
// Run it with:
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"

	"xst/internal/catalog"
	"xst/internal/core"
	"xst/internal/fed"
	"xst/internal/table"
	"xst/internal/xtest"
)

func main() {
	const sites, nUsers, nOrders = 4, 2_000, 10_000

	r := xtest.NewRand(42)
	users := make([]table.Row, nUsers)
	for i := range users {
		users[i] = table.Row{core.Int(i), core.Str(fmt.Sprintf("city-%02d", r.Intn(20))), core.Int(r.Intn(100))}
	}
	orders := make([]table.Row, nOrders)
	for i := range orders {
		orders[i] = table.Row{core.Int(i), core.Int(r.Intn(nUsers)), core.Int(r.Intn(1000))}
	}
	// Users hash on id and orders hash on uid: the join below is
	// co-partitioned, so every strategy, co-located included, applies.
	populate := func(dbs []*catalog.Database) error {
		if err := fed.CreateSharded(dbs, table.Schema{Name: "users", Cols: []string{"id", "city", "score"}},
			&catalog.Partition{Kind: catalog.PartHash, Col: "id"}, users); err != nil {
			return err
		}
		return fed.CreateSharded(dbs, table.Schema{Name: "orders", Cols: []string{"oid", "uid", "amount"}},
			&catalog.Partition{Kind: catalog.PartHash, Col: "uid"}, orders)
	}

	// A selective query: join cheap orders to their users.
	const stmt = "from orders join users on uid = id where amount < 30 select oid, amount, city"
	fmt.Printf("%d sites, %d users + %d orders hash-partitioned\n", sites, nUsers, nOrders)
	fmt.Printf("%s, by strategy:\n", stmt)
	fmt.Printf("  %-10s  %10s  %6s\n", "strategy", "wire bytes", "rows")
	ctx := context.Background()
	for _, force := range []string{"shipall", "broadcast", "semijoin", "colocated"} {
		lf, err := fed.BootLocal(ctx, sites, fed.Config{ForceStrategy: force}, populate)
		if err != nil {
			panic(err)
		}
		q, err := lf.Coord.Compile(stmt)
		if err != nil {
			panic(err)
		}
		before := lf.Coord.Metrics().BytesShipped.Value()
		rows := 0
		if _, err := q.Run(ctx, func(b []table.Row) error { rows += len(b); return nil }); err != nil {
			panic(err)
		}
		fmt.Printf("  %-10s  %10d  %6d\n", force, lf.Coord.Metrics().BytesShipped.Value()-before, rows)
		lf.Shutdown(ctx)
	}
	fmt.Println()
	fmt.Println("semijoin ships the probe-side key *set* (an XST image) instead of")
	fmt.Println("base data; co-located joins ship only results — set-at-a-time")
	fmt.Println("thinking applied to the network.")
}
