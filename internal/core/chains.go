package core

import (
	"math"
	"math/rand/v2"
)

// Chains files int32 ids, handed out in insertion order, under 64-bit
// digests. First and Next walk the ids filed under digests of the same
// 32-bit tag, newest first, and the caller confirms each with Equal —
// which compares kinds first, so atoms and sets share one table and an
// encoded set can never pass for a Str. It is the index under every
// hash operator: algebra's relative product, closure and count, and
// exec's join, grouping and distinct. The zero value is ready.
//
// The table is flat, 12 bytes an id when full: a bucket head per id it
// has room for, and per id its entry. NewChains reserves room once, for
// a count the caller knows (a build's rows, a planner's distinct keys);
// past it both arrays double.
type Chains struct {
	heads []int32 // bucket → 1 + its newest id, 0 when empty
	ids   []chainID
}

// chainID is an id's next older id in its bucket (-1 if none) and the
// tag it was filed under, side by side: a chain step reads one line.
type chainID struct {
	next int32
	tag  uint32
}

// NewChains returns empty Chains with room for n ids.
func NewChains(n int) (c Chains) {
	c.reserve(n)
	return c
}

// Reset empties c. It keeps c's arrays, and all the room they have,
// when they have room for n ids; otherwise it is NewChains(n).
func (c *Chains) Reset(n int) {
	if m := cap(c.ids); m > 0 && m >= n {
		c.heads, c.ids = c.heads[:m], c.ids[:0]
		clear(c.heads)
		return
	}
	*c = NewChains(n)
}

// Room is how many ids c has room for before it grows.
func (c *Chains) Room() int { return cap(c.ids) }

// Poison empties c and points every bucket head at an id it does not
// hold, so a walk of c before the next Reset panics: it is for tests of
// code that recycles c.
func (c *Chains) Poison() {
	for b := range c.heads {
		c.heads[b] = math.MaxInt32
	}
	c.ids = c.ids[:0]
}

// reserve makes room for n ids in all, re-threading those filed.
func (c *Chains) reserve(n int) {
	if n <= 0 {
		return
	}
	c.heads, c.ids = make([]int32, n), append(make([]chainID, 0, n), c.ids...)
	for id := range c.ids {
		b := c.bucket(c.ids[id].tag)
		c.ids[id].next, c.heads[b] = c.heads[b]-1, int32(id+1)
	}
}

// chainMul, drawn per process, keeps clients from searching offline for
// keys that share a tag or a bucket; callers confirm ids, so no result
// changes.
var chainMul = rand.Uint64() | 1

// tag mixes digest d into the 32 bits kept of it: the high half folded
// in, since DigestInt is not uniform in its low bits (a one-to-one fold),
// then a multiply by chainMul spreading every bit into the top 32 taken.
func tag(d uint64) uint32 { return uint32(((d ^ d>>32) * chainMul) >> 32) }

// bucket scales tag t onto the heads.
func (c *Chains) bucket(t uint32) uint64 { return uint64(t) * uint64(len(c.heads)) >> 32 }

// Add files the next id under digest d.
func (c *Chains) Add(d uint64) {
	id := len(c.ids)
	if id == cap(c.ids) {
		c.reserve(max(8, 2*id))
	}
	t := tag(d)
	b := c.bucket(t)
	c.ids, c.heads[b] = append(c.ids, chainID{c.heads[b] - 1, t}), int32(id+1)
}

// First returns the newest id filed under d's tag, or -1; Next continues.
func (c *Chains) First(d uint64) int32 {
	if len(c.heads) == 0 {
		return -1
	}
	t := tag(d)
	id := c.heads[c.bucket(t)] - 1
	for id >= 0 && c.ids[id].tag != t {
		id = c.ids[id].next
	}
	return id
}

// Next returns the id filed under the same tag before id, or -1.
func (c *Chains) Next(id int32) int32 {
	t := c.ids[id].tag
	for id = c.ids[id].next; id >= 0 && c.ids[id].tag != t; id = c.ids[id].next {
	}
	return id
}
