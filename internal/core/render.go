package core

import "strconv"

// Rendering is append-style throughout: one implementation writes XST
// notation into a caller's buffer, so a caller that renders many values
// (a server streaming result rows) reuses one []byte, and String is the
// same code run into a fresh one.

// String renders s in XST notation. Tuples render as ⟨…⟩ sugar
// (ASCII: <…>), classical members render without their ∅ scope, and
// other members render elem^scope. The empty set renders as {}.
func (s *Set) String() string { return string(appendSet(nil, s)) }

// AppendTuple appends the rendering of the n-tuple ⟨x1, …, xn⟩ to dst —
// byte for byte what Tuple(xs...).String() gives, `<x1,…,xn>` and `{}`
// for the 0-tuple — without building the tuple: no member slice, no
// sort, no position lookup.
func AppendTuple(dst []byte, xs []Value) []byte {
	if len(xs) == 0 {
		return append(dst, '{', '}')
	}
	dst = append(dst, '<')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendValue(dst, x)
	}
	return append(dst, '>')
}

func appendSet(dst []byte, s *Set) []byte {
	if elems, ok := TupleElems(s); ok {
		return AppendTuple(dst, elems)
	}
	dst = append(dst, '{')
	for i, m := range s.members {
		if i > 0 {
			dst = append(dst, ',', ' ')
		}
		dst = appendValue(dst, m.Elem)
		if sc, ok := m.Scope.(*Set); !ok || !sc.IsEmpty() {
			dst = append(dst, '^')
			dst = appendValue(dst, m.Scope)
		}
	}
	return append(dst, '}')
}

func appendValue(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case Bool:
		return strconv.AppendBool(dst, bool(x))
	case Int:
		return strconv.AppendInt(dst, int64(x), 10)
	case Float:
		return appendFloat(dst, x)
	case Str:
		return strconv.AppendQuote(dst, string(x))
	case *Set:
		return appendSet(dst, x)
	default:
		return append(dst, v.String()...)
	}
}

// appendFloat keeps floats visually distinct from ints so rendering
// round-trips: a float that prints like an integer gets ".0".
func appendFloat(dst []byte, f Float) []byte {
	start := len(dst)
	dst = strconv.AppendFloat(dst, float64(f), 'g', -1, 64)
	for _, c := range dst[start:] {
		switch c {
		case '.', 'e', 'E', 'N', 'I': // a fraction, an exponent, NaN, ±Inf
			return dst
		}
	}
	return append(dst, '.', '0')
}
