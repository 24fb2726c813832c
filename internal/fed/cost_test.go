package fed

import "testing"

func TestChooseStrategyShapes(t *testing.T) {
	base := CostInputs{
		LeftRows: 10_000, RightRows: 1_000,
		LeftRowBytes: 20, RightRowBytes: 20, KeyBytes: 4,
		Sites: 4, JoinRows: 10_000,
	}
	// Co-partitioned with a big result is still cheapest when valid and
	// the result is not blown up.
	co := base
	co.CoPartitioned = true
	co.JoinRows = 1_000
	if got := ChooseStrategy(co); got != CoLocated {
		t.Fatalf("co-partitioned small result chose %v", got)
	}
	// Highly selective probe side → semijoin.
	sel := base
	sel.LeftRows = 100 // 1 % of the left rows survive
	sel.JoinRows = 100
	if got := ChooseStrategy(sel); got != SemiJoin {
		t.Fatalf("selective probe chose %v", got)
	}
	// Unselective, not co-partitioned → ship-all beats broadcast for a
	// right table of similar size.
	if got := ChooseStrategy(base); got != ShipAll && got != SemiJoin {
		t.Fatalf("baseline chose %v", got)
	}
	// CoLocated must never be chosen when invalid.
	bad := sel
	bad.CoPartitioned = false
	if got := ChooseStrategy(bad); got == CoLocated {
		t.Fatal("invalid co-located chosen")
	}
	if EstimateBytes(base, Strategy(99)) < 1<<59 {
		t.Fatal("unknown strategy must be infinitely expensive")
	}
}

// TestSemiJoinKeyCoverage pins the corrected semijoin cost model: the
// matched-right fraction is key coverage (shipped distinct keys over
// right rows), not the share of left rows kept. With an unselective left side
// over a large right table, the old model charged nearly the whole
// right side to the semijoin and picked ShipAll; coverage-based costing
// makes SemiJoin the clear winner.
func TestSemiJoinKeyCoverage(t *testing.T) {
	in := CostInputs{
		LeftRows: 100, RightRows: 10000,
		LeftRowBytes: 100, RightRowBytes: 20, KeyBytes: 8,
		Sites: 4, JoinRows: 100,
	}
	// leftShip 10_000 + keyShip 100*8*4 = 3_200 + rightAll 200_000 *
	// coverage (100/10_000 = 0.01) = 2_000.
	if got, want := EstimateBytes(in, SemiJoin), 15200.0; got != want {
		t.Fatalf("semijoin bytes = %v, want %v", got, want)
	}
	if got := ChooseStrategy(in); got != SemiJoin {
		t.Fatalf("small-left/large-right join chose %v, want SemiJoin", got)
	}
	// Coverage saturates at 1: a left side with more keys than right
	// rows cannot match more than the whole right table.
	big := in
	big.LeftRows = 50000
	if got := EstimateBytes(big, SemiJoin); got < float64(big.RightRows*big.RightRowBytes) {
		t.Fatalf("saturated coverage must still ship the whole right side, got %v", got)
	}
	// Degenerate empty right side must not divide by zero.
	empty := in
	empty.RightRows = 0
	if got := EstimateBytes(empty, SemiJoin); got != 10000+3200 {
		t.Fatalf("empty right side bytes = %v", got)
	}
}

// TestSemiJoinDistinctKeyCap pins the cost model before and after
// statistics arrive: with LeftKeyDistinct unset every restricted left
// row ships a key (the sampled heuristic); a persisted distinct count
// caps the shipment and can flip the chosen strategy.
func TestSemiJoinDistinctKeyCap(t *testing.T) {
	in := CostInputs{
		LeftRows: 1000, RightRows: 1000,
		LeftRowBytes: 20, RightRowBytes: 20, KeyBytes: 9,
		Sites: 4,
	}
	// Before: leftShip 20_000 + keyShip 1000*9*4 = 36_000 + rightAll
	// 20_000 * coverage 1 = 76_000; ShipAll (40_000) wins.
	if got, want := EstimateBytes(in, SemiJoin), 76000.0; got != want {
		t.Fatalf("semijoin bytes without stats = %v, want %v", got, want)
	}
	if got := ChooseStrategy(in); got != ShipAll {
		t.Fatalf("without stats chose %v, want ShipAll", got)
	}
	// After .analyze: 50 distinct keys. keyShip 50*9*4 = 1_800,
	// coverage 50/1000 = 0.05 → rightShip 1_000; total 22_800 beats
	// ShipAll.
	in.LeftKeyDistinct = 50
	if got, want := EstimateBytes(in, SemiJoin), 22800.0; got != want {
		t.Fatalf("semijoin bytes with stats = %v, want %v", got, want)
	}
	if got := ChooseStrategy(in); got != SemiJoin {
		t.Fatalf("with stats chose %v, want SemiJoin", got)
	}
	// A distinct count above the restricted row estimate is ignored —
	// there cannot be more shipped keys than surviving rows.
	in.LeftKeyDistinct = 5000
	if got, want := EstimateBytes(in, SemiJoin), 76000.0; got != want {
		t.Fatalf("oversized distinct must not inflate keys: %v, want %v", got, want)
	}
}

// TestSemiJoinRightKeyCoverage: with the right key's distinct count,
// coverage is shipped keys over right key values. 100 keys over a right
// side of 100 keys with 100 rows each cover all of it, and SemiJoin no
// longer pays.
func TestSemiJoinRightKeyCoverage(t *testing.T) {
	in := CostInputs{
		LeftRows: 100, RightRows: 10000,
		LeftRowBytes: 100, RightRowBytes: 20, KeyBytes: 8,
		Sites: 4, JoinRows: 10000, RightKeyDistinct: 100,
	}
	// leftShip 10_000 + keyShip 100*8*4 = 3_200 + rightAll 200_000 *
	// coverage (100/100 = 1).
	if got, want := EstimateBytes(in, SemiJoin), 213200.0; got != want {
		t.Fatalf("semijoin bytes over a dense right key = %v, want %v", got, want)
	}
	if got := ChooseStrategy(in); got == SemiJoin {
		t.Fatalf("keys covering the whole right side chose SemiJoin")
	}
}
