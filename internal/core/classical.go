package core

// Classical (CST-compatible) operations on extended sets. In XST the
// boolean operations act on membership pairs: a member is an (element,
// scope) fact, and union/intersection/difference combine those facts
// exactly as CST combines plain elements. On all-∅-scope sets these
// reduce to the classical operations, which is the compatibility the
// paper requires.

// merge walks the canonical sequences a and b in step and calls fn, in
// canonical order, with every distinct member and whether it is in a
// and in b: nothing is looked up and nothing is sorted.
func merge(a, b []Member, fn func(m Member, inA, inB bool)) {
	for len(a) > 0 || len(b) > 0 {
		c := 1
		if len(b) == 0 {
			c = -1
		} else if len(a) > 0 {
			c = compareMembers(a[0], b[0])
		}
		if c <= 0 {
			fn(a[0], true, c == 0)
			a = a[1:]
		} else {
			fn(b[0], false, true)
		}
		if c >= 0 {
			b = b[1:]
		}
	}
}

// mergeSet is the set of the members of a and b that keep selects: one
// list, sized by a counting walk, and no sort.
func mergeSet(a, b *Set, keep func(inA, inB bool) bool) *Set {
	n := mergeCount(a, b, keep, false)
	if n == 0 {
		return emptySet
	}
	ms := make([]Member, 0, n)
	merge(a.members, b.members, func(m Member, inA, inB bool) {
		if keep(inA, inB) {
			ms = append(ms, m)
		}
	})
	return &Set{members: ms, hash: hashMembers(ms)}
}

// mergeCount counts the members keep selects or, with elems, their
// distinct elements (Card of mergeSet), allocating nothing.
func mergeCount(a, b *Set, keep func(inA, inB bool) bool, elems bool) int {
	n, last := 0, Value(nil)
	merge(a.members, b.members, func(m Member, inA, inB bool) {
		if keep(inA, inB) && (!elems || n == 0 || !Equal(last, m.Elem)) {
			n, last = n+1, m.Elem
		}
	})
	return n
}

func either(inA, inB bool) bool { return inA || inB }
func both(inA, inB bool) bool   { return inA && inB }
func onlyA(inA, inB bool) bool  { return inA && !inB }

// Union returns a ∪ b.
func Union(a, b *Set) *Set {
	if a.IsEmpty() {
		return b
	}
	if b.IsEmpty() {
		return a
	}
	return mergeSet(a, b, either)
}

// UnionAll returns the union of all given sets.
func UnionAll(sets ...*Set) *Set {
	n := 0
	for _, s := range sets {
		n += len(s.members)
	}
	ms := make([]Member, 0, n)
	for _, s := range sets {
		ms = append(ms, s.members...)
	}
	return ownSet(ms)
}

// Intersect returns a ∩ b.
func Intersect(a, b *Set) *Set { return mergeSet(a, b, both) }

// Diff returns a ∼ b (set difference).
func Diff(a, b *Set) *Set {
	if b.IsEmpty() {
		return a
	}
	return mergeSet(a, b, onlyA)
}

// UnionCard is Card(Union(a, b)), counted by a merge walk that
// allocates nothing.
func UnionCard(a, b *Set) int { return mergeCount(a, b, either, true) }

// IntersectCard is Card(Intersect(a, b)), counted the same way.
func IntersectCard(a, b *Set) int { return mergeCount(a, b, both, true) }

// SymDiff returns the symmetric difference (a ∼ b) ∪ (b ∼ a).
func SymDiff(a, b *Set) *Set { return Union(Diff(a, b), Diff(b, a)) }

// Subset reports a ⊆ b: a merge that stops at the first member of a
// missing from b.
func Subset(a, b *Set) bool {
	if len(a.members) > len(b.members) {
		return false
	}
	bs := b.members
	for _, m := range a.members {
		for len(bs) > 0 && compareMembers(bs[0], m) < 0 {
			bs = bs[1:]
		}
		if len(bs) == 0 || compareMembers(bs[0], m) != 0 {
			return false
		}
		bs = bs[1:]
	}
	return true
}

// ProperSubset reports a ⊂ b with a ≠ b.
func ProperSubset(a, b *Set) bool {
	return len(a.members) < len(b.members) && Subset(a, b)
}

// NonEmptySubset reports the paper's "⊆̷" relation: a ⊆ b and a ≠ ∅.
func NonEmptySubset(a, b *Set) bool { return !a.IsEmpty() && Subset(a, b) }

// Singleton reports Sing(v): v is a set with exactly one member.
func Singleton(v Value) bool {
	s, ok := v.(*Set)
	return ok && len(s.members) == 1
}

// Powerset returns ℘(s): the set of all subsets of s under the classical
// scope. It panics if s has more than 20 members (2^20 subsets) to guard
// against accidental blow-up.
func Powerset(s *Set) *Set {
	n := len(s.members)
	if n > 20 {
		panic("core: Powerset of set with more than 20 members")
	}
	total := 1 << uint(n)
	b := NewBuilder(total)
	for mask := 0; mask < total; mask++ {
		sub := NewBuilder(n)
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				sub.AddMember(s.members[i])
			}
		}
		b.AddClassical(sub.Set())
	}
	return b.Set()
}

// Subsets calls fn with every subset of s, in an unspecified order,
// stopping early if fn returns false. It enumerates lazily and so has no
// size guard, but still costs 2^n calls.
func Subsets(s *Set, fn func(*Set) bool) {
	n := len(s.members)
	if n > 62 {
		panic("core: Subsets of set with more than 62 members")
	}
	total := uint64(1) << uint(n)
	for mask := uint64(0); mask < total; mask++ {
		sub := NewBuilder(n)
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				sub.AddMember(s.members[i])
			}
		}
		if !fn(sub.Set()) {
			return
		}
	}
}

// Card returns the classical cardinality of s: the number of distinct
// elements, ignoring scopes.
func Card(s *Set) int {
	n := 0
	for i, m := range s.members {
		if i == 0 || !Equal(s.members[i-1].Elem, m.Elem) {
			n++
		}
	}
	return n
}
