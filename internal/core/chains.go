package core

import "math/rand/v2"

// Chains files int32 ids under 64-bit digests: ids are handed out in
// insertion order, ids of one digest are chained newest first, and the
// caller decides equality among them with Equal — which compares kinds
// first, so atoms and sets share one table and an encoded set can never
// pass for a Str. It is the index under every hash operator: the
// relative product's build side and the closure's seen-set in algebra,
// and the join, grouping and distinct tables in exec. The zero value is
// ready to use.
//
// The table is flat: power-of-two bucket heads, at least twice the ids
// it has room for, and per id the next older id of its bucket and the
// digest First and Next compare. NewChains reserves room once, for a
// count the caller knows (a build's rows, a planner's distinct keys);
// past it the arrays double and the heads are re-threaded.
type Chains struct {
	heads []int32  // bucket → 1 + its newest id, 0 when empty
	next  []int32  // id → the next older id of its bucket, or -1
	digs  []uint64 // id → the digest it was filed under
	shift uint     // 64 − log2(len(heads)): a mixed digest's top bits pick its bucket
}

// NewChains returns empty Chains with room for n ids.
func NewChains(n int) (c Chains) {
	c.reserve(n)
	return c
}

// reserve makes room for n ids in all, re-threading those filed.
func (c *Chains) reserve(n int) {
	if n <= 0 {
		return
	}
	size, shift := 16, uint(60)
	for size < 2*n {
		size, shift = size<<1, shift-1
	}
	c.heads, c.shift = make([]int32, size), shift
	c.next, c.digs = make([]int32, len(c.next), n), append(make([]uint64, 0, n), c.digs...)
	for id, d := range c.digs {
		b := c.bucket(d)
		c.next[id], c.heads[b] = c.heads[b]-1, int32(id+1)
	}
}

// chainMul, drawn per process, keeps clients from searching offline for
// keys that share a bucket; chains are per digest, so no result changes.
var chainMul = rand.Uint64() | 1

// bucket mixes digest d into a bucket index. Digests are not uniform in
// their low bits (DigestInt), so the high half is folded in and a
// multiply by chainMul spreads every bit into the top bits taken.
func (c *Chains) bucket(d uint64) uint64 {
	return ((d ^ d>>32) * chainMul) >> c.shift
}

// Add files the next id under digest d.
func (c *Chains) Add(d uint64) {
	id := len(c.next)
	if id == cap(c.next) {
		c.reserve(max(8, 2*id))
	}
	b := c.bucket(d)
	c.next, c.digs = append(c.next, c.heads[b]-1), append(c.digs, d)
	c.heads[b] = int32(id + 1)
}

// First returns the newest id filed under d, or -1; Next continues.
func (c *Chains) First(d uint64) int32 {
	if len(c.heads) == 0 {
		return -1
	}
	id := c.heads[c.bucket(d)] - 1
	for id >= 0 && c.digs[id] != d {
		id = c.next[id]
	}
	return id
}

// Next returns the id filed under the same digest before id, or -1.
func (c *Chains) Next(id int32) int32 {
	d := c.digs[id]
	for id = c.next[id]; id >= 0 && c.digs[id] != d; id = c.next[id] {
	}
	return id
}
