package core

import (
	"slices"
	"sort"
)

// Member is one scoped membership fact: Elem ∈_Scope set. Both fields are
// arbitrary values. The classical "x ∈ A" is Member{Elem: x, Scope: ∅}.
type Member struct {
	Elem  Value
	Scope Value
}

// M builds a member with an explicit scope.
func M(elem, scope Value) Member { return Member{Elem: elem, Scope: scope} }

// E builds a member with the classical (empty-set) scope.
func E(elem Value) Member { return Member{Elem: elem, Scope: Empty()} }

// Set is an immutable extended set: a canonical (sorted, deduplicated)
// sequence of members. The zero value is not valid; use Empty or NewSet.
type Set struct {
	members []Member
	hash    uint64
}

var emptySet = &Set{hash: hashKindUint64(KindSet, 0)}

// Empty returns the empty set ∅.
func Empty() *Set { return emptySet }

// Kind implements Value.
func (*Set) Kind() Kind { return KindSet }

func (s *Set) digest() uint64 { return s.hash }

// NewSet builds a canonical extended set from members. Duplicate
// (element, scope) pairs collapse; order is irrelevant.
func NewSet(members ...Member) *Set {
	if len(members) == 0 {
		return emptySet
	}
	ms := make([]Member, len(members))
	copy(ms, members)
	return ownSet(ms)
}

// ownSet canonicalizes ms in place and wraps it. The caller must not
// retain ms.
func ownSet(ms []Member) *Set {
	ms = Canonicalize(ms)
	if len(ms) == 0 {
		return emptySet
	}
	return &Set{members: ms, hash: hashMembers(ms)}
}

// OwnSet is NewSet without the copy: it canonicalizes ms in place and
// the returned set keeps ms as its member sequence, so the caller must
// neither write to nor retain ms afterwards (setmutate checks this).
func OwnSet(ms []Member) *Set { return ownSet(ms) }

// Canonicalize sorts ms into canonical member order and drops duplicate
// (element, scope) pairs, in place, and returns the canonical prefix of
// ms. It is the whole of set construction short of the wrapping, for
// callers that compare or hash member sequences without keeping a set.
func Canonicalize(ms []Member) []Member {
	switch len(ms) {
	case 0, 1:
		return ms
	case 2:
		c := compareMembers(ms[0], ms[1])
		if c == 0 {
			return ms[:1]
		}
		if c > 0 {
			ms[0], ms[1] = ms[1], ms[0]
		}
		return ms
	}
	slices.SortFunc(ms, compareMembers)
	w := 1
	for i := 1; i < len(ms); i++ {
		if compareMembers(ms[i], ms[w-1]) != 0 {
			ms[w] = ms[i]
			w++
		}
	}
	return ms[:w]
}

// hashMembers is the digest of the set whose canonical members are ms.
func hashMembers(ms []Member) uint64 {
	h := hashKindUint64(KindSet, uint64(len(ms)))
	for _, m := range ms {
		h = hashUint64(h, m.Elem.digest())
		h = hashUint64(h, m.Scope.digest())
	}
	return h
}

// Slab builds many small sets into two shared backing arrays, one of
// set headers and one of member windows, so an operation that emits
// thousands of pairs allocates two arrays rather than two objects per
// pair. NewSlab sizes them once for an output whose size is known; past
// that they grow as append grows them, and the sets already carved keep
// the arrays they were carved from. The sets are ordinary immutable
// values; the price is lifetime — any one of them keeps its arrays
// reachable. The zero value is ready to use; a Slab must not be shared
// between goroutines.
type Slab struct {
	hdrs []Set
	ms   []Member
}

// NewSlab returns a Slab with room for sets headers and members members.
func NewSlab(sets, members int) Slab {
	return Slab{hdrs: make([]Set, 0, sets), ms: make([]Member, 0, members)}
}

// Set canonicalizes ms in place and returns the set of its members,
// copied into the slab: ms stays the caller's scratch to reuse.
func (sl *Slab) Set(ms []Member) *Set {
	ms = Canonicalize(ms)
	if len(ms) == 0 {
		return emptySet
	}
	start := len(sl.ms)
	sl.ms = append(sl.ms, ms...)
	sl.hdrs = append(sl.hdrs, Set{members: sl.ms[start:len(sl.ms):len(sl.ms)], hash: hashMembers(ms)})
	return &sl.hdrs[len(sl.hdrs)-1]
}

// S builds a classical set: every argument becomes a member under the
// empty scope.
func S(elems ...Value) *Set {
	ms := make([]Member, len(elems))
	for i, e := range elems {
		ms[i] = Member{Elem: e, Scope: emptySet}
	}
	return ownSet(ms)
}

// Len returns the number of members (distinct element/scope pairs).
func (s *Set) Len() int { return len(s.members) }

// IsEmpty reports whether s is ∅.
func (s *Set) IsEmpty() bool { return len(s.members) == 0 }

// Members returns the canonical member sequence without copying: the
// returned slice IS the set's identity. The caller must not modify it,
// append to it, sort it, or retain it beyond the enclosing operation —
// a single write silently corrupts Equal, Compare and Digest for every
// alias of the set. Use CopyMembers for a mutable snapshot. The
// setmutate analyzer (cmd/xstvet) enforces this contract.
func (s *Set) Members() []Member { return s.members }

// CopyMembers returns a freshly allocated copy of the canonical member
// sequence, safe to mutate, sort, or retain.
func (s *Set) CopyMembers() []Member {
	out := make([]Member, len(s.members))
	copy(out, s.members)
	return out
}

// Member returns the i-th member in canonical order.
func (s *Set) Member(i int) Member { return s.members[i] }

// Each calls fn for every member in canonical order, stopping early if fn
// returns false.
func (s *Set) Each(fn func(Member) bool) {
	for _, m := range s.members {
		if !fn(m) {
			return
		}
	}
}

// Has reports whether elem ∈_scope s.
func (s *Set) Has(elem, scope Value) bool {
	m := Member{Elem: elem, Scope: scope}
	i := sort.Search(len(s.members), func(i int) bool {
		return compareMembers(s.members[i], m) >= 0
	})
	return i < len(s.members) && compareMembers(s.members[i], m) == 0
}

// HasClassical reports whether elem ∈_∅ s.
func (s *Set) HasClassical(elem Value) bool { return s.Has(elem, emptySet) }

// HasElem reports whether elem belongs to s under any scope.
func (s *Set) HasElem(elem Value) bool {
	i := s.lowerBoundElem(elem)
	return i < len(s.members) && Equal(s.members[i].Elem, elem)
}

// lowerBoundElem returns the index of the first member whose element is
// >= elem.
func (s *Set) lowerBoundElem(elem Value) int {
	return sort.Search(len(s.members), func(i int) bool {
		return Compare(s.members[i].Elem, elem) >= 0
	})
}

// MembersOf returns the members of s whose element is elem — one per
// scope under which elem belongs to s — in canonical order. They are
// contiguous in the canonical sequence, so the result is a window into
// it: nothing is allocated, and the no-mutate, no-retain contract of
// Members applies.
func (s *Set) MembersOf(elem Value) []Member {
	lo := s.lowerBoundElem(elem)
	hi := lo
	for hi < len(s.members) && Equal(s.members[hi].Elem, elem) {
		hi++
	}
	return s.members[lo:hi]
}

// ElemsUnder returns every element that belongs to s under scope, in
// canonical order. Subject to the same no-mutate, no-retain contract as
// Members.
func (s *Set) ElemsUnder(scope Value) []Value {
	var elems []Value
	for _, m := range s.members {
		if Equal(m.Scope, scope) {
			elems = append(elems, m.Elem)
		}
	}
	return elems
}

// Elems returns the distinct elements of s (ignoring scopes), in
// canonical order. Subject to the same no-mutate, no-retain contract as
// Members.
func (s *Set) Elems() []Value {
	var out []Value
	for _, m := range s.members {
		if len(out) == 0 || !Equal(out[len(out)-1], m.Elem) {
			out = append(out, m.Elem)
		}
	}
	return out
}

// Scopes returns the distinct scopes of s, in canonical order. Subject
// to the same no-mutate, no-retain contract as Members.
func (s *Set) Scopes() []Value {
	seen := map[uint64][]Value{}
	var out []Value
	for _, m := range s.members {
		d := m.Scope.digest()
		dup := false
		for _, v := range seen[d] {
			if Equal(v, m.Scope) {
				dup = true
				break
			}
		}
		if !dup {
			seen[d] = append(seen[d], m.Scope)
			out = append(out, m.Scope)
		}
	}
	sort.Slice(out, func(i, j int) bool { return Compare(out[i], out[j]) < 0 })
	return out
}

// IsClassical reports whether every scope of s is ∅, i.e. whether s is a
// classical set.
func (s *Set) IsClassical() bool {
	for _, m := range s.members {
		sc, ok := m.Scope.(*Set)
		if !ok || !sc.IsEmpty() {
			return false
		}
	}
	return true
}

// Builder accumulates members and produces a canonical set. It avoids the
// quadratic cost of repeated Union calls when constructing large sets.
type Builder struct {
	ms []Member
}

// NewBuilder returns a builder with capacity for n members.
func NewBuilder(n int) *Builder { return &Builder{ms: make([]Member, 0, n)} }

// Add appends a member fact elem ∈_scope.
func (b *Builder) Add(elem, scope Value) *Builder {
	b.ms = append(b.ms, Member{Elem: elem, Scope: scope})
	return b
}

// AddClassical appends elem ∈_∅.
func (b *Builder) AddClassical(elem Value) *Builder { return b.Add(elem, emptySet) }

// AddMember appends an existing member.
func (b *Builder) AddMember(m Member) *Builder {
	b.ms = append(b.ms, m)
	return b
}

// AddSet appends every member of s.
func (b *Builder) AddSet(s *Set) *Builder {
	b.ms = append(b.ms, s.members...)
	return b
}

// Len returns the number of accumulated (pre-canonical) members.
func (b *Builder) Len() int { return len(b.ms) }

// Set canonicalizes and returns the accumulated set. The builder is
// invalid afterwards.
func (b *Builder) Set() *Set {
	ms := b.ms
	b.ms = nil
	return ownSet(ms)
}
