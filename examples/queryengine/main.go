// Queryengine runs the same queries through both engines — the
// record-at-a-time Volcano iterators and the set-at-a-time exec tree —
// over one stored dataset, verifying they agree and showing the
// page-touch difference the paper's set-processing thesis is about.
// Run it with:
//
//	go run ./examples/queryengine
package main

import (
	"context"
	"fmt"
	"time"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/relational"
	"xst/internal/table"
	"xst/internal/workload"
)

func main() {
	ds, err := workload.Build(workload.Spec{
		Seed: 42, Users: 20_000, Orders: 60_000, Cities: 50,
	}, 512)
	if err != nil {
		panic(err)
	}
	fmt.Printf("dataset: %d users, %d orders (paged heap files, shared buffer pool)\n\n",
		ds.Users.Count(), ds.Orders.Count())

	city := workload.SelectivityValue(50)
	cityCol := ds.Users.Schema().Col("city")

	// --- Selection: σ(city = X) ---------------------------------------
	ds.Pool.ResetStats()
	start := time.Now()
	recCount, err := relational.Count(&relational.Filter{
		Child: relational.NewTableScan(ds.Users),
		Pred:  relational.ColEq(cityCol, city),
	})
	if err != nil {
		panic(err)
	}
	recTime := time.Since(start)
	recStats := ds.Pool.Stats()

	ds.Pool.ResetStats()
	start = time.Now()
	setCount, err := exec.Count(context.Background(), exec.NewStage(&exec.Restrict{
		Pred: func(r table.Row) bool { return core.Equal(r[cityCol], city) },
		Name: "city = " + city.String(),
	}, exec.NewScan(ds.Users, nil)))
	if err != nil {
		panic(err)
	}
	setTime := time.Since(start)
	setStats := ds.Pool.Stats()

	fmt.Printf("selection σ(city = %v): both engines found %d rows (agree: %v)\n",
		city, recCount, recCount == setCount)
	fmt.Printf("  record-at-a-time: %8v  pool touches: %d\n", recTime, recStats.Hits+recStats.Misses)
	fmt.Printf("  set-at-a-time:    %8v  pool touches: %d\n\n", setTime, setStats.Hits+setStats.Misses)

	// --- Join: orders ⋈ users ------------------------------------------
	uidCol := ds.Orders.Schema().Col("uid")
	start = time.Now()
	recJoin, err := relational.Count(&relational.HashJoin{
		Left:    relational.NewTableScan(ds.Orders),
		Right:   relational.NewTableScan(ds.Users),
		LeftCol: uidCol, RightCol: 0,
	})
	if err != nil {
		panic(err)
	}
	recJoinTime := time.Since(start)

	start = time.Now()
	setJoin, err := exec.Count(context.Background(), exec.NewHashJoin(
		exec.NewScan(ds.Orders, nil), exec.NewScan(ds.Users, nil), uidCol, 0))
	if err != nil {
		panic(err)
	}
	setJoinTime := time.Since(start)

	fmt.Printf("join orders⋈users: both engines produced %d rows (agree: %v)\n",
		recJoin, recJoin == setJoin)
	fmt.Printf("  record-at-a-time: %8v\n", recJoinTime)
	fmt.Printf("  set-at-a-time:    %8v\n\n", setJoinTime)

	// --- Aggregation: orders per city ----------------------------------
	joined := &relational.HashJoin{
		Left:    relational.NewTableScan(ds.Orders),
		Right:   relational.NewTableScan(ds.Users),
		LeftCol: uidCol, RightCol: 0,
	}
	perCity := &relational.GroupCount{Child: joined, Col: 3 + 1} // users.city
	rows, err := relational.Collect(&relational.Limit{Child: perCity, N: 5})
	if err != nil {
		panic(err)
	}
	fmt.Println("orders per city (first 5 groups):")
	for _, r := range rows {
		fmt.Printf("  %-12v %v\n", r[0], r[1])
	}
}
