package plan

import "runtime"

// The degree of parallelism: the cost model picks one per plan, and
// small inputs run on one worker — fan-out costs more than it saves.

// ParallelThreshold is the estimated base-input row count below which
// plans stay serial. Tests may lower it to force parallel plans on
// small fixtures.
var ParallelThreshold = 16384

// MaxDOP caps the degree of parallelism; 0 means min(GOMAXPROCS, 8).
var MaxDOP = 0

// maxDOP resolves the MaxDOP default.
func maxDOP() int {
	if MaxDOP > 0 {
		return MaxDOP
	}
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// ChooseDOP picks the degree of parallelism for a plan: 1 (serial)
// unless the largest base table feeding it clears ParallelThreshold,
// then enough workers that each gets a meaningful share of pages,
// capped at MaxDOP.
func ChooseDOP(n Node) int {
	rows := largestScanRows(n)
	if rows < ParallelThreshold {
		return 1
	}
	d := maxDOP()
	// Each worker should get at least a quarter-threshold of rows;
	// fanning out wider than the data just burns goroutines.
	perWorker := ParallelThreshold / 4
	if perWorker < 1 {
		perWorker = 1
	}
	if byWork := rows / perWorker; byWork < d {
		d = byWork
	}
	if d < 2 {
		return 1
	}
	return d
}

// largestScanRows returns the row count of the biggest base table in
// the plan — the driver of parallel benefit, since morsels are dealt
// from base-table pages.
func largestScanRows(n Node) int {
	switch x := n.(type) {
	case *Scan:
		return x.Table.Count()
	case *IndexAccess:
		// An index leaf feeds only its estimated matches; a pruned
		// probe should not trigger fan-out on the base table's size.
		return int(x.Est)
	}
	most := 0
	withChildren(n, func(k Node) Node {
		most = max(most, largestScanRows(k))
		return k
	})
	return most
}
