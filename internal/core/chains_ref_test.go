package core

import (
	"math/rand"
	"testing"
)

// refChains is the map-keyed Chains the flat table replaced, kept as
// its oracle: a digest's newest id in a Go map, older ids chained.
type refChains struct {
	heads map[uint64]int32 // digest → 1 + its newest id
	next  []int32          // id → the next older id of the same digest, or -1
}

func (c *refChains) Add(d uint64) {
	if c.heads == nil {
		c.heads = map[uint64]int32{}
	}
	c.next = append(c.next, c.heads[d]-1)
	c.heads[d] = int32(len(c.next))
}

func (c *refChains) First(d uint64) int32 { return c.heads[d] - 1 }

func (c *refChains) Next(id int32) int32 { return c.next[id] }

// chainOf walks every id filed under d, newest first.
func chainOf(first func(uint64) int32, next func(int32) int32, d uint64) []int32 {
	var ids []int32
	for id := first(d); id >= 0; id = next(id) {
		ids = append(ids, id)
	}
	return ids
}

// TestChainsMatchMapOracle files random digests into the flat table
// and the map oracle side by side and, after every add, compares the
// chain of each digest seen so far and of one never filed. Digests are
// forced into 1–3 bits (every id shares a few chains and a few buckets)
// or drawn in full, with and without low bits only (DigestInt's
// shape); runs cross every doubling from the first, starting from the
// zero value, NewChains(0), an exact size and an undersized one.
func TestChainsMatchMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draws := []struct {
		name string
		dig  func() uint64
	}{
		{"1bit", func() uint64 { return rng.Uint64() & 1 }},
		{"2bits", func() uint64 { return rng.Uint64() & 3 }},
		{"3bits-high", func() uint64 { return rng.Uint64() & (7 << 61) }},
		{"low16", func() uint64 { return rng.Uint64() & 0xffff }},
		{"full", rng.Uint64},
	}
	starts := []struct {
		name string
		new  func(n int) Chains
	}{
		{"zero", func(int) Chains { return Chains{} }},
		{"NewChains(0)", func(int) Chains { return NewChains(0) }},
		{"exact", NewChains},
		{"undersized", func(n int) Chains { return NewChains(n / 7) }},
	}
	for _, dr := range draws {
		for _, st := range starts {
			for _, n := range []int{1, 7, 8, 9, 300, 1100} {
				flat, ref := st.new(n), refChains{}
				var seen []uint64
				check := func(d uint64) {
					got := chainOf(flat.First, flat.Next, d)
					want := chainOf(ref.First, ref.Next, d)
					if len(got) != len(want) {
						t.Fatalf("%s/%s/%d after %d adds: digest %#x chains %v, oracle %v", dr.name, st.name, n, len(ref.next), d, got, want)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s/%s/%d after %d adds: digest %#x chains %v, oracle %v", dr.name, st.name, n, len(ref.next), d, got, want)
						}
					}
				}
				check(0)
				for i := 0; i < n; i++ {
					d := dr.dig()
					flat.Add(d)
					ref.Add(d)
					seen = append(seen, d)
					if n <= 300 || i%97 == 0 || i == n-1 {
						for _, d := range seen[max(0, len(seen)-16):] {
							check(d)
						}
						check(^d) // the complement was never filed when d is masked
					}
				}
				for _, d := range seen {
					check(d)
				}
			}
		}
	}
}

// TestChainsOneBucket files digests searched to share one bucket under
// this process's multiplier — what a client who knew it could send —
// each twice, interleaved, and checks every chain against the oracle:
// one long bucket costs time, never a wrong chain.
func TestChainsOneBucket(t *testing.T) {
	const n = 200
	flat, ref := NewChains(2*n), refChains{}
	rng := rand.New(rand.NewSource(2))
	want := flat.bucket(rng.Uint64())
	var digs []uint64
	for len(digs) < n {
		if d := rng.Uint64(); flat.bucket(d) == want {
			digs = append(digs, d)
		}
	}
	for _, d := range append(digs, digs...) {
		flat.Add(d)
		ref.Add(d)
	}
	for b, h := range flat.heads {
		if h != 0 && uint64(b) != want {
			t.Fatalf("bucket %d is filled, only %d should be", b, want)
		}
	}
	for _, d := range digs {
		got, exp := chainOf(flat.First, flat.Next, d), chainOf(ref.First, ref.Next, d)
		if len(got) != 2 || got[0] != exp[0] || got[1] != exp[1] {
			t.Fatalf("digest %#x chains %v, oracle %v", d, got, exp)
		}
	}
	if id := flat.First(^digs[0]); id >= 0 {
		t.Fatalf("a digest never filed chains id %d", id)
	}
}
