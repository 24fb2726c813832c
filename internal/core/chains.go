package core

// Chains files int32 ids under 64-bit digests: ids are handed out in
// insertion order, ids of one digest are chained newest first, and the
// caller decides equality among them with Equal — which compares kinds
// first, so atoms and sets share one table and an encoded set can never
// pass for a Str. It is the index under every hash operator: the
// relative product's build side and the closure's seen-set in algebra,
// and the join, grouping and distinct tables in exec. The zero value is
// ready to use.
type Chains struct {
	heads map[uint64]int32 // digest → 1 + its newest id
	next  []int32          // id → the next older id of the same digest, or -1
}

// NewChains returns empty Chains sized for n ids.
func NewChains(n int) Chains {
	return Chains{heads: make(map[uint64]int32, n), next: make([]int32, 0, n)}
}

// Add files the next id under digest d.
func (c *Chains) Add(d uint64) {
	if c.heads == nil {
		c.heads = map[uint64]int32{}
	}
	c.next = append(c.next, c.heads[d]-1)
	c.heads[d] = int32(len(c.next))
}

// First returns the newest id filed under d, or -1; Next continues.
func (c *Chains) First(d uint64) int32 { return c.heads[d] - 1 }

// Next returns the id filed under the same digest before id, or -1.
func (c *Chains) Next(id int32) int32 { return c.next[id] }
