package core

import "testing"

// TestAtomKeyOf pins the key an atom is filed under — its Digest in
// Chains, told apart from the other ids of its chain by Equal — to
// structural equality: two values share an id iff Equal holds, across
// every kind pair that could plausibly collide, with -0.0 and +0.0 as
// one key and sets and tuples apart from the atoms they hold. It files
// them once under their digests and once all under one digest.
func TestAtomKeyOf(t *testing.T) {
	vals := []Value{
		Bool(false), Bool(true),
		Int(0), Int(1), Int(-1),
		Float(0), Float(negZero()), Float(1), Float(1.5), // negZero from value_test.go
		Str(""), Str("1"), Str("true"),
		S(), S(Int(1)), Tuple(Int(1)),
	}
	for _, mask := range []uint64{^uint64(0), 0} {
		var c Chains
		var filed []Value
		id := func(v Value) int32 {
			d := Digest(v) & mask
			for i := c.First(d); i >= 0; i = c.Next(i) {
				if Equal(filed[i], v) {
					return i
				}
			}
			c.Add(d)
			filed = append(filed, v)
			return int32(len(filed) - 1)
		}
		ids := make([]int32, len(vals))
		for i, v := range vals {
			ids[i] = id(v)
		}
		for i, a := range vals {
			if got := id(a); got != ids[i] {
				t.Errorf("mask %#x: %v filed again as id %d, was %d", mask, a, got, ids[i])
			}
			for j, b := range vals {
				if (ids[i] == ids[j]) != Equal(a, b) {
					t.Errorf("mask %#x: same id for %v and %v is %v, Equal is %v",
						mask, a, b, ids[i] == ids[j], Equal(a, b))
				}
				if Equal(a, b) && Digest(a) != Digest(b) {
					t.Errorf("Equal(%v, %v) but their digests differ", a, b)
				}
			}
		}
		if ids[5] != ids[6] {
			t.Errorf("mask %#x: -0.0 and +0.0 filed apart", mask)
		}
	}
}
