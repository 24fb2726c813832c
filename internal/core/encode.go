package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Canonical binary encoding of values. Because sets are canonical, the
// encoding is injective: Encode(a) == Encode(b) iff Equal(a, b). It is
// used both as an exact map key (see Key) and as the on-page codec of the
// storage substrate.
//
// Wire format (all integers little-endian):
//
//	bool:   0x01 b
//	int:    0x02 u64(zigzag)
//	float:  0x03 u64(ieee754 bits, -0 normalized)
//	string: 0x04 uvarint(len) bytes
//	set:    0x05 uvarint(n) then n × (elem, scope) in canonical order

const (
	tagBool   = 0x01
	tagInt    = 0x02
	tagFloat  = 0x03
	tagString = 0x04
	tagSet    = 0x05
)

// AppendEncode appends the canonical encoding of v to dst.
func AppendEncode(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case Bool:
		dst = append(dst, tagBool)
		if x {
			return append(dst, 1)
		}
		return append(dst, 0)
	case Int:
		dst = append(dst, tagInt)
		u := uint64(int64(x)<<1) ^ uint64(int64(x)>>63)
		return binary.AppendUvarint(dst, u)
	case Float:
		dst = append(dst, tagFloat)
		bits := math.Float64bits(float64(x))
		if x == 0 {
			bits = 0
		}
		return binary.LittleEndian.AppendUint64(dst, bits)
	case Str:
		dst = append(dst, tagString)
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		return append(dst, x...)
	case *Set:
		dst = append(dst, tagSet)
		dst = binary.AppendUvarint(dst, uint64(len(x.members)))
		for _, m := range x.members {
			dst = AppendEncode(dst, m.Elem)
			dst = AppendEncode(dst, m.Scope)
		}
		return dst
	default:
		panic(fmt.Sprintf("core: cannot encode %T", v))
	}
}

// Encode returns the canonical encoding of v.
func Encode(v Value) []byte { return AppendEncode(nil, v) }

// Key returns the canonical encoding as a string, suitable as an exact
// map key: Key(a) == Key(b) iff Equal(a, b).
func Key(v Value) string { return string(Encode(v)) }

// OrderKey returns an encoding whose LEXICOGRAPHIC byte order agrees
// with Compare for atoms: two atoms a, b satisfy Compare(a, b) < 0 iff
// OrderKey(a) < OrderKey(b) as strings. This is the key form for ordered
// indexes (B+tree range scans); the exact-match Key remains the cheaper
// choice for hash indexes. Keys are standalone (never concatenated), so
// no terminators are needed.
//
// Sets order after all atoms (matching the kind rank) but only by their
// canonical encoding, which preserves equality and kind-grouping, not
// the full Compare order — range-scanning over set-valued keys is not
// supported.
func OrderKey(v Value) string {
	switch x := v.(type) {
	case Bool:
		if x {
			return string([]byte{tagBool, 1})
		}
		return string([]byte{tagBool, 0})
	case Int:
		var b [9]byte
		b[0] = tagInt
		binary.BigEndian.PutUint64(b[1:], uint64(int64(x))+(1<<63))
		return string(b[:])
	case Float:
		bits := math.Float64bits(float64(x))
		if x == 0 {
			bits = 0
		}
		if bits&(1<<63) != 0 {
			bits = ^bits // negative floats: reverse order
		} else {
			bits |= 1 << 63 // positive floats: after negatives
		}
		var b [9]byte
		b[0] = tagFloat
		binary.BigEndian.PutUint64(b[1:], bits)
		return string(b[:])
	case Str:
		return string(append([]byte{tagString}, x...))
	case *Set:
		return string(append([]byte{tagSet}, Encode(x)...))
	default:
		panic(fmt.Sprintf("core: cannot order-encode %T", v))
	}
}

// ErrCorrupt reports a malformed encoding.
var ErrCorrupt = errors.New("core: corrupt value encoding")

// Decode parses one value from the front of buf and returns it with the
// number of bytes consumed.
func Decode(buf []byte) (Value, int, error) {
	if len(buf) == 0 {
		return nil, 0, ErrCorrupt
	}
	switch buf[0] {
	case tagBool:
		if len(buf) < 2 {
			return nil, 0, ErrCorrupt
		}
		switch buf[1] {
		case 0:
			return Bool(false), 2, nil
		case 1:
			return Bool(true), 2, nil
		default:
			return nil, 0, ErrCorrupt
		}
	case tagInt:
		i, n, err := DecodeInt(buf)
		if err != nil {
			return nil, 0, err
		}
		return Int(i), n, nil
	case tagFloat:
		if len(buf) < 9 {
			return nil, 0, ErrCorrupt
		}
		bits := binary.LittleEndian.Uint64(buf[1:9])
		f := math.Float64frombits(bits)
		if math.IsNaN(f) {
			return nil, 0, ErrCorrupt
		}
		return Float(f), 9, nil
	case tagString:
		b, n, err := DecodeStrBytes(buf)
		if err != nil {
			return nil, 0, err
		}
		return Str(b), n, nil
	case tagSet:
		cnt, n := binary.Uvarint(buf[1:])
		if n <= 0 || cnt > uint64(len(buf)) {
			return nil, 0, ErrCorrupt
		}
		off := 1 + n
		ms := make([]Member, 0, cnt)
		for i := uint64(0); i < cnt; i++ {
			elem, k, err := Decode(buf[off:])
			if err != nil {
				return nil, 0, err
			}
			off += k
			scope, k, err := Decode(buf[off:])
			if err != nil {
				return nil, 0, err
			}
			off += k
			ms = append(ms, Member{Elem: elem, Scope: scope})
		}
		return ownSet(ms), off, nil
	default:
		return nil, 0, ErrCorrupt
	}
}

// PeekKind reports the kind of the value encoded at the front of buf;
// ok is false when buf does not start with a value tag.
func PeekKind(buf []byte) (k Kind, ok bool) {
	if len(buf) == 0 || buf[0] < tagBool || buf[0] > tagSet {
		return 0, false
	}
	return [...]Kind{KindBool, KindInt, KindFloat, KindString, KindSet}[buf[0]-tagBool], true
}

// DecodeInt parses the Int encoded at the front of buf without boxing
// it, returning its value and the bytes it occupies. buf must start
// with an Int (see PeekKind).
func DecodeInt(buf []byte) (int64, int, error) {
	if len(buf) == 0 || buf[0] != tagInt {
		return 0, 0, ErrCorrupt
	}
	u, n := binary.Uvarint(buf[1:])
	if n <= 0 {
		return 0, 0, ErrCorrupt
	}
	return int64(u>>1) ^ -int64(u&1), 1 + n, nil
}

// DecodeStrBytes parses the Str encoded at the front of buf without
// copying it: the bytes it returns are a window of buf. buf must start
// with a Str (see PeekKind).
func DecodeStrBytes(buf []byte) ([]byte, int, error) {
	if len(buf) == 0 || buf[0] != tagString {
		return nil, 0, ErrCorrupt
	}
	l, n := binary.Uvarint(buf[1:])
	if n <= 0 || uint64(len(buf)) < 1+uint64(n)+l {
		return nil, 0, ErrCorrupt
	}
	start := 1 + n
	return buf[start : start+int(l)], start + int(l), nil
}

// Skip returns the number of bytes the value at the front of buf
// occupies without building it: a reader that does not need a value
// steps over it. Only the framing is checked, not what Decode would
// reject inside it (a bool byte other than 0 or 1, a NaN).
func Skip(buf []byte) (int, error) {
	if len(buf) == 0 {
		return 0, ErrCorrupt
	}
	switch buf[0] {
	case tagBool:
		if len(buf) < 2 {
			return 0, ErrCorrupt
		}
		return 2, nil
	case tagInt:
		_, n := binary.Uvarint(buf[1:])
		if n <= 0 {
			return 0, ErrCorrupt
		}
		return 1 + n, nil
	case tagFloat:
		if len(buf) < 9 {
			return 0, ErrCorrupt
		}
		return 9, nil
	case tagString:
		l, n := binary.Uvarint(buf[1:])
		if n <= 0 || uint64(len(buf)) < 1+uint64(n)+l {
			return 0, ErrCorrupt
		}
		return 1 + n + int(l), nil
	case tagSet:
		cnt, n := binary.Uvarint(buf[1:])
		if n <= 0 || cnt > uint64(len(buf)) {
			return 0, ErrCorrupt
		}
		off := 1 + n
		for i := uint64(0); i < 2*cnt; i++ { // n × (elem, scope)
			k, err := Skip(buf[off:])
			if err != nil {
				return 0, err
			}
			off += k
		}
		return off, nil
	default:
		return 0, ErrCorrupt
	}
}

// DecodeFull parses buf as exactly one value with no trailing bytes.
func DecodeFull(buf []byte) (Value, error) {
	v, n, err := Decode(buf)
	if err != nil {
		return nil, err
	}
	if n != len(buf) {
		return nil, ErrCorrupt
	}
	return v, nil
}
