package fed

import "fmt"

// Strategy selection: a byte-cost model over the four distributed join
// strategies, in the spirit of classical distributed query
// optimization. The coordinator knows partition counts and the
// (estimated) selectivity of the left-side restriction; each strategy's
// network bytes follow directly.

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
	// LeftRows and RightRows are total row counts across partitions.
	LeftRows, RightRows int
	// LeftRowBytes / RightRowBytes are average serialized row sizes.
	LeftRowBytes, RightRowBytes int
	// KeyBytes is the average serialized join-key size.
	KeyBytes int
	// LeftSelectivity is the fraction of left rows surviving the
	// restriction (1 = no restriction).
	LeftSelectivity float64
	// LeftKeyDistinct is the number of distinct join-key values on the
	// left side, when known from collected statistics (0 = unknown).
	// SemiJoin ships each distinct key once, so this caps its key
	// shipment; the zero value preserves the sampled heuristic.
	LeftKeyDistinct int
	// Sites is the cluster size.
	Sites int
	// CoPartitioned reports both tables hash-partitioned on the join
	// key, making CoLocated valid.
	CoPartitioned bool
	// JoinRows estimates the result cardinality (for result shipping).
	JoinRows int
}

// EstimateBytes predicts the network bytes a strategy moves. Result
// shipment depends on where the join runs: ShipAll and SemiJoin join at
// the coordinator, so the joined rows never cross the network again and
// only the inputs count; Broadcast and CoLocated join at the sites, so
// the result itself must ship back and resultBytes is charged.
func EstimateBytes(in CostInputs, s Strategy) float64 {
	leftShip := float64(in.LeftRows) * in.LeftSelectivity * float64(in.LeftRowBytes)
	rightAll := float64(in.RightRows * in.RightRowBytes)
	resultBytes := float64(in.JoinRows * (in.LeftRowBytes + in.RightRowBytes))
	switch s {
	case ShipAll:
		return leftShip + rightAll
	case Broadcast:
		// Gather right once, then one copy per left site, plus results.
		return rightAll*float64(1+in.Sites) + resultBytes
	case SemiJoin:
		distinctKeys := float64(in.LeftRows) * in.LeftSelectivity
		if in.LeftKeyDistinct > 0 && float64(in.LeftKeyDistinct) < distinctKeys {
			distinctKeys = float64(in.LeftKeyDistinct)
		}
		keyShip := distinctKeys * float64(in.KeyBytes) * float64(in.Sites)
		// Matching right rows ≈ key coverage: the fraction of the right
		// side whose key appears in the shipped set, not the left-side
		// selectivity (a highly selective left restriction still covers
		// the whole right side when both have many rows per key).
		frac := 1.0
		if in.RightRows > 0 {
			frac = distinctKeys / float64(in.RightRows)
			if frac > 1 {
				frac = 1
			}
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
