// Package core implements the extended-set value model of Childs'
// Extended Set Theory (XST): immutable values that are either atoms
// (integers, floats, strings, booleans) or extended sets — collections of
// (element, scope) membership pairs in which both element and scope are
// themselves arbitrary values.
//
// Classical set theory embeds exactly: a classical set is an extended set
// all of whose scopes are the empty set, and the classical ordered pair
// ⟨x, y⟩ is the extended set {x^1, y^2} (Def 7.2 of the formal text).
//
// All values are kept in canonical form (members sorted under a total
// order with duplicates removed), so structural equality, hashing and
// ordering are well defined and cheap.
package core

import (
	"fmt"
	"math"
	"strconv"
)

// Kind discriminates the value variants.
type Kind uint8

// The value kinds, in their total-order rank.
const (
	KindBool Kind = iota
	KindInt
	KindFloat
	KindString
	KindSet
)

func (k Kind) String() string {
	switch k {
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindSet:
		return "set"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is an immutable XST value: an atom or an extended set.
//
// Implementations are Bool, Int, Float, Str and *Set. Values are deeply
// immutable; it is safe to share them between goroutines.
type Value interface {
	// Kind reports the variant of the value.
	Kind() Kind
	// String renders the value in XST notation.
	String() string
	// digest returns a 64-bit structural hash of the value.
	digest() uint64
}

// Bool is a boolean atom.
type Bool bool

// Int is a signed integer atom.
type Int int64

// Float is a floating-point atom. NaN floats are not valid values; the
// constructors in this package never produce them, and Compare treats all
// NaNs as equal to each other and less than every other float.
type Float float64

// Str is a string atom.
type Str string

// Kind implements Value.
func (Bool) Kind() Kind { return KindBool }

// Kind implements Value.
func (Int) Kind() Kind { return KindInt }

// Kind implements Value.
func (Float) Kind() Kind { return KindFloat }

// Kind implements Value.
func (Str) Kind() Kind { return KindString }

func (b Bool) String() string {
	if b {
		return "true"
	}
	return "false"
}

func (i Int) String() string { return strconv.FormatInt(int64(i), 10) }

func (f Float) String() string { return string(appendFloat(nil, f)) }

func (s Str) String() string { return strconv.Quote(string(s)) }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func hashUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = hashByte(h, byte(v>>(8*i)))
	}
	return h
}

func hashKindUint64(k Kind, v uint64) uint64 {
	return hashUint64(hashByte(fnvOffset, byte(k)), v)
}

func (b Bool) digest() uint64 {
	if b {
		return hashKindUint64(KindBool, 1)
	}
	return hashKindUint64(KindBool, 0)
}

func (i Int) digest() uint64 { return DigestInt(int64(i)) }

func (f Float) digest() uint64 {
	bits := math.Float64bits(float64(f))
	if f == 0 { // normalize -0.0 and +0.0
		bits = 0
	}
	return hashKindUint64(KindFloat, bits)
}

func (s Str) digest() uint64 { return digestString(s) }

// DigestInt is Digest(Int(i)), for a reader holding an unboxed integer.
func DigestInt(i int64) uint64 { return hashKindUint64(KindInt, uint64(i)) }

// DigestBytes is Digest(Str(b)), for a reader holding a string's bytes.
func DigestBytes(b []byte) uint64 { return digestString(b) }

func digestString[S ~string | ~[]byte](s S) uint64 {
	h := hashByte(fnvOffset, byte(KindString))
	for i := 0; i < len(s); i++ {
		h = hashByte(h, s[i])
	}
	return h
}

// Compare defines the total order on values used for canonical form.
// Values of distinct kinds order by kind rank; atoms order naturally
// within their kind; sets order lexicographically over their canonical
// member sequences (element before scope). It returns -1, 0 or +1.
func Compare(a, b Value) int {
	ka, kb := a.Kind(), b.Kind()
	if ka != kb {
		if ka < kb {
			return -1
		}
		return 1
	}
	switch ka {
	case KindBool:
		x, y := a.(Bool), b.(Bool)
		switch {
		case x == y:
			return 0
		case !bool(x):
			return -1
		default:
			return 1
		}
	case KindInt:
		x, y := a.(Int), b.(Int)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		default:
			return 0
		}
	case KindFloat:
		x, y := float64(a.(Float)), float64(b.(Float))
		xn, yn := math.IsNaN(x), math.IsNaN(y)
		switch {
		case xn && yn:
			return 0
		case xn:
			return -1
		case yn:
			return 1
		case x < y:
			return -1
		case x > y:
			return 1
		default:
			return 0
		}
	case KindString:
		x, y := a.(Str), b.(Str)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		default:
			return 0
		}
	case KindSet:
		return compareSets(a.(*Set), b.(*Set))
	default:
		panic("core: unknown kind " + ka.String())
	}
}

func compareSets(a, b *Set) int {
	if a == b {
		return 0
	}
	n := len(a.members)
	if len(b.members) < n {
		n = len(b.members)
	}
	for i := 0; i < n; i++ {
		if c := compareMembers(a.members[i], b.members[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a.members) < len(b.members):
		return -1
	case len(a.members) > len(b.members):
		return 1
	default:
		return 0
	}
}

func compareMembers(a, b Member) int {
	if c := Compare(a.Elem, b.Elem); c != 0 {
		return c
	}
	return Compare(a.Scope, b.Scope)
}

// Equal reports whether two values are structurally identical.
func Equal(a, b Value) bool {
	//lint:ignore valueeq Equal IS the structural comparison; identity (interned emptySet, shared subtrees) is its sound fast path
	if a == b {
		return true
	}
	if a.digest() != b.digest() {
		return false
	}
	return Compare(a, b) == 0
}

// Digest returns a 64-bit structural hash of v. Equal values always have
// equal digests; the converse holds only probabilistically, so use Equal
// for decisions and Digest for bucketing.
func Digest(v Value) uint64 { return v.digest() }
