package fed

import "fmt"

// Strategy selection: a byte-cost model over the four distributed join
// strategies, in the spirit of classical distributed query
// optimization. The coordinator knows partition counts, and its
// planner catalog (plan.Catalog.Estimate over the sites' statistics)
// sizes both inputs and the join; each strategy's network bytes follow
// directly.

// Strategy selects a distributed join algorithm.
type Strategy int

const (
	// ShipAll ships every partition of both tables to the coordinator
	// and joins there — the naive baseline.
	ShipAll Strategy = iota
	// Broadcast ships the (smaller) right table to every left site,
	// joins locally, and ships only results.
	Broadcast
	// SemiJoin ships the distinct join keys of the (filtered) left side
	// to the right sites, which return only matching rows — the classic
	// reducer; in XST terms the key set is an image and the reduction a
	// restriction by it.
	SemiJoin
	// CoLocated joins partition-locally, valid only when both tables are
	// hash-partitioned on the join key; ships only results.
	CoLocated
)

func (s Strategy) String() string {
	switch s {
	case ShipAll:
		return "ship-all"
	case Broadcast:
		return "broadcast"
	case SemiJoin:
		return "semijoin"
	case CoLocated:
		return "co-located"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// CostInputs describes a distributed equi-join for strategy selection.
type CostInputs struct {
	// LeftRows and RightRows are the estimated rows each input yields
	// across partitions, after its own restriction.
	LeftRows, RightRows int
	// LeftRowBytes / RightRowBytes are the average serialized sizes of
	// the rows each side ships, its pushed projection's columns only.
	LeftRowBytes, RightRowBytes int
	// KeyBytes is the average serialized join-key size.
	KeyBytes int
	// LeftKeyDistinct is the number of distinct join-key values on the
	// left side, when known from collected statistics (0 = unknown).
	// SemiJoin ships each distinct key once, so this caps its key
	// shipment; the zero value preserves the sampled heuristic.
	LeftKeyDistinct int
	// RightKeyDistinct is the right join key's distinct count, when
	// known (0 = unknown): the share of those values the shipped keys
	// cover is the share of right rows SemiJoin ships.
	RightKeyDistinct int
	// Sites is the cluster size.
	Sites int
	// CoPartitioned reports both tables hash-partitioned on the join
	// key, making CoLocated valid.
	CoPartitioned bool
	// JoinRows is the planner's estimate of the result cardinality (for
	// result shipping).
	JoinRows int
}

// EstimateBytes predicts the network bytes a strategy moves. Result
// shipment depends on where the join runs: ShipAll and SemiJoin join at
// the coordinator, so the joined rows never cross the network again and
// only the inputs count; Broadcast and CoLocated join at the sites, so
// the result itself must ship back and resultBytes is charged.
func EstimateBytes(in CostInputs, s Strategy) float64 {
	leftShip := float64(in.LeftRows * in.LeftRowBytes)
	rightAll := float64(in.RightRows * in.RightRowBytes)
	resultBytes := float64(in.JoinRows * (in.LeftRowBytes + in.RightRowBytes))
	switch s {
	case ShipAll:
		return leftShip + rightAll
	case Broadcast:
		// Gather right once, then one copy per left site, plus results.
		return rightAll*float64(1+in.Sites) + resultBytes
	case SemiJoin:
		distinctKeys := float64(in.LeftRows)
		if in.LeftKeyDistinct > 0 && float64(in.LeftKeyDistinct) < distinctKeys {
			distinctKeys = float64(in.LeftKeyDistinct)
		}
		keyShip := distinctKeys * float64(in.KeyBytes) * float64(in.Sites)
		// Matching right rows ≈ key coverage: the fraction of the right
		// side whose key appears in the shipped set, not the share of
		// left rows kept (a highly selective left restriction still
		// covers the whole right side when both have many rows per key).
		// Without the right key's distinct count, its keys are taken as
		// unique.
		frac := 1.0
		if in.RightKeyDistinct > 0 {
			frac = min(distinctKeys/float64(in.RightKeyDistinct), 1)
		} else if in.RightRows > 0 {
			frac = min(distinctKeys/float64(in.RightRows), 1)
		}
		return leftShip + keyShip + rightAll*frac
	case CoLocated:
		if !in.CoPartitioned {
			return 1 << 60 // invalid: effectively infinite
		}
		return resultBytes
	default:
		return 1 << 60
	}
}

// ChooseStrategy returns the strategy with the lowest estimated bytes.
func ChooseStrategy(in CostInputs) Strategy {
	best := ShipAll
	bestCost := EstimateBytes(in, ShipAll)
	for _, s := range []Strategy{Broadcast, SemiJoin, CoLocated} {
		if c := EstimateBytes(in, s); c < bestCost {
			best, bestCost = s, c
		}
	}
	return best
}
