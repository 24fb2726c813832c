package core

// Classical (CST-compatible) operations on extended sets. In XST the
// boolean operations act on membership pairs: a member is an (element,
// scope) fact, and union/intersection/difference combine those facts
// exactly as CST combines plain elements. On all-∅-scope sets these
// reduce to the classical operations, which is the compatibility the
// paper requires.

// Union returns a ∪ b.
func Union(a, b *Set) *Set {
	if a.IsEmpty() {
		return b
	}
	if b.IsEmpty() {
		return a
	}
	ms := make([]Member, 0, len(a.members)+len(b.members))
	ms = append(ms, a.members...)
	ms = append(ms, b.members...)
	return ownSet(ms)
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
func Intersect(a, b *Set) *Set {
	if a.IsEmpty() || b.IsEmpty() {
		return emptySet
	}
	if len(b.members) < len(a.members) {
		a, b = b, a
	}
	var ms []Member
	for _, m := range a.members {
		if b.Has(m.Elem, m.Scope) {
			ms = append(ms, m)
		}
	}
	return ownSet(ms)
}

// Diff returns a ∼ b (set difference).
func Diff(a, b *Set) *Set {
	if a.IsEmpty() || b.IsEmpty() {
		return a
	}
	var ms []Member
	for _, m := range a.members {
		if !b.Has(m.Elem, m.Scope) {
			ms = append(ms, m)
		}
	}
	return ownSet(ms)
}

// SymDiff returns the symmetric difference (a ∼ b) ∪ (b ∼ a).
func SymDiff(a, b *Set) *Set { return Union(Diff(a, b), Diff(b, a)) }

// Subset reports a ⊆ b.
func Subset(a, b *Set) bool {
	if len(a.members) > len(b.members) {
		return false
	}
	for _, m := range a.members {
		if !b.Has(m.Elem, m.Scope) {
			return false
		}
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
