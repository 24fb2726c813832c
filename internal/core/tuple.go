package core

// Tuples in XST are not a separate type: the ordered pair ⟨x, y⟩ is the
// extended set {x^1, y^2} (Def 7.2) and the n-tuple ⟨x1, …, xn⟩ is
// {x1^1, …, xn^n} (Def 9.1). This file provides constructors and the
// tup() recognizer.

// Pair returns the ordered pair ⟨x, y⟩ = {x^1, y^2}.
func Pair(x, y Value) *Set {
	return NewSet(Member{Elem: x, Scope: Int(1)}, Member{Elem: y, Scope: Int(2)})
}

// Tuple returns the n-tuple ⟨x1, …, xn⟩ = {x1^1, …, xn^n}. Tuple() is ∅,
// the 0-tuple.
func Tuple(xs ...Value) *Set {
	ms := make([]Member, len(xs))
	for i, x := range xs {
		ms[i] = Member{Elem: x, Scope: Int(i + 1)}
	}
	return ownSet(ms)
}

// TupleScoped returns the tuple of xs carrying an outer scope sequence:
// the set {x1^s1, …, xn^sn} is not expressible as a plain tuple, so this
// builds {x1^1, …, xn^n} whose *use* sites attach the scope tuple
// ⟨s1,…,sn⟩ at the membership level. It is a convenience for notation
// like ⟨a, x⟩^⟨A, Z⟩: TupleScoped yields the member pair directly.
func TupleScoped(xs, scopes []Value) Member {
	if len(xs) != len(scopes) {
		panic("core: TupleScoped length mismatch")
	}
	return Member{Elem: Tuple(xs...), Scope: Tuple(scopes...)}
}

// TupLen implements the tup() recognizer (Def 9.1): it reports n and true
// iff v is a set of exactly the form {x1^1, …, xn^n}. The empty set is
// the 0-tuple.
func TupLen(v Value) (int, bool) {
	s, ok := v.(*Set)
	if !ok {
		return 0, false
	}
	n := len(s.members)
	var few [64]bool // on the stack: recognizing a pair or a row allocates nothing
	seen := few[:]
	if n > len(few) {
		seen = make([]bool, n)
	}
	for _, m := range s.members {
		i, ok := m.Scope.(Int)
		if !ok || i < 1 || int(i) > n || seen[i-1] {
			return 0, false
		}
		seen[i-1] = true
	}
	return n, true
}

// IsTuple reports whether v is an n-tuple for some n ≥ 0.
func IsTuple(v Value) bool {
	_, ok := TupLen(v)
	return ok
}

// TupleElems returns the components of an n-tuple in position order, and
// whether v was a tuple at all.
func TupleElems(v Value) ([]Value, bool) {
	n, ok := TupLen(v)
	if !ok {
		return nil, false
	}
	s := v.(*Set)
	out := make([]Value, n)
	for _, m := range s.members {
		out[m.Scope.(Int)-1] = m.Elem
	}
	return out, true
}

// TupleAt returns the i-th component (1-based) of tuple v. It panics if v
// is not a tuple or i is out of range.
func TupleAt(v Value, i int) Value {
	elems, ok := TupleElems(v)
	if !ok {
		panic("core: TupleAt on non-tuple")
	}
	if i < 1 || i > len(elems) {
		panic("core: TupleAt index out of range")
	}
	return elems[i-1]
}

// Concat implements tuple concatenation (Def 9.2): ⟨x1…xn⟩ · ⟨y1…ym⟩ =
// ⟨x1…xn, y1…ym⟩. It reports false if either operand is not a tuple.
func Concat(x, y Value) (*Set, bool) {
	xe, ok := TupleElems(x)
	if !ok {
		return nil, false
	}
	ye, ok := TupleElems(y)
	if !ok {
		return nil, false
	}
	return Tuple(append(append(make([]Value, 0, len(xe)+len(ye)), xe...), ye...)...), true
}

// MustConcat is Concat that panics on non-tuples.
func MustConcat(x, y Value) *Set {
	z, ok := Concat(x, y)
	if !ok {
		panic("core: Concat on non-tuple")
	}
	return z
}
