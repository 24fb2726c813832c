// Distributed demonstrates the paper's title claim — extended set
// processing as the model for a *distributed* backend information
// system: one dataset hash-partitioned over four sites, the same join
// executed under four shipping strategies, with the simulated network
// bytes each strategy moves. Run it with:
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"

	"xst/internal/core"
	"xst/internal/dist"
	"xst/internal/fed"
	"xst/internal/table"
	"xst/internal/workload"
	"xst/internal/xtest"
)

func main() {
	const sites, users, orders = 4, 2_000, 10_000

	c := dist.NewCluster(sites, 256)
	if err := c.CreateTable(workload.UsersSchema()); err != nil {
		panic(err)
	}
	if err := c.CreateTable(workload.OrdersSchema()); err != nil {
		panic(err)
	}
	r := xtest.NewRand(42)
	for i := 0; i < users; i++ {
		row := table.Row{core.Int(i), core.Str(fmt.Sprintf("city-%02d", r.Intn(20))), core.Int(r.Intn(100))}
		if err := c.InsertHash("users", 0, row); err != nil {
			panic(err)
		}
	}
	for i := 0; i < orders; i++ {
		row := table.Row{core.Int(i), core.Int(r.Intn(users)), core.Int(r.Intn(1000))}
		if err := c.InsertHash("orders", 1, row); err != nil {
			panic(err)
		}
	}
	fmt.Printf("cluster: %d sites, %d users + %d orders hash-partitioned\n",
		sites, c.Count("users"), c.Count("orders"))
	for _, s := range c.Sites {
		u, _ := s.Table("users")
		o, _ := s.Table("orders")
		fmt.Printf("  site %d: %5d users, %5d orders\n", s.ID, u.Count(), o.Count())
	}
	fmt.Println()

	// A selective query: join cheap orders to their users.
	spec := dist.JoinSpec{
		Left: "orders", Right: "users",
		LeftCol: 1, RightCol: 0,
		LeftPred:     func(row table.Row) bool { return core.Compare(row[2], core.Int(30)) < 0 },
		LeftPredName: "amount < 30",
	}
	fmt.Println("join orders⋈users where amount < 30, by strategy:")
	fmt.Printf("  %-11s  %10s  %6s  %6s\n", "strategy", "net bytes", "msgs", "rows")
	for _, strat := range []fed.Strategy{fed.ShipAll, fed.Broadcast, fed.SemiJoin, fed.CoLocated} {
		c.Net.Reset()
		rows, err := c.Join(context.Background(), spec, strat)
		if err != nil {
			panic(err)
		}
		st := c.Net.Stats()
		fmt.Printf("  %-11s  %10d  %6d  %6d\n", strat, st.Bytes, st.Messages, len(rows))
	}
	fmt.Println()
	fmt.Println("semijoin ships the probe-side key *set* (an XST image) instead of")
	fmt.Println("base data; co-located joins ship only results — set-at-a-time")
	fmt.Println("thinking applied to the network.")
}
