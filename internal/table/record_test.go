package table

import (
	"bytes"
	"errors"
	"testing"

	"xst/internal/core"
)

// FuzzAppendRecord: for any bytes and arity, Batch.AppendRecord appends what
// EncodeRow appends for the row DecodeRow reads, and fails where
// DecodeRow fails (core.ErrCorrupt) or, after it, where the arity
// differs (ErrSchema), handing dst back as it was. Column reads every
// position of what it wrote.
func FuzzAppendRecord(f *testing.F) {
	for _, r := range []Row{
		{core.Int(300), core.Str("a")},
		{core.Int(-2), core.Float(-0.5), core.Bool(true)},
		{core.Tuple(core.Int(1), core.Str("x")), core.S(core.Int(2), core.Int(1))},
		{},
	} {
		f.Add(EncodeRow(nil, r), uint8(len(r)))
	}
	f.Add([]byte{0x82, 0x00, 0x02, 0x82, 0x00, 0x04, 0x01, 'a'}, uint8(2))                    // overlong varints
	f.Add([]byte{0x01, 0x03, 0, 0, 0, 0, 0, 0, 0, 0x80}, uint8(1))                            // -0.0
	f.Add([]byte{0x01, 0x05, 0x02, 0x02, 0x04, 0x02, 0x00, 0x02, 0x02, 0x02, 0x00}, uint8(1)) // unsorted set
	f.Add([]byte{0x01, 0x02, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint8(1))
	f.Add([]byte{0x01, 0x02, 0x02, 0x00}, uint8(1)) // trailing byte

	var b Batch // reused, as a session reuses its own
	f.Fuzz(func(t *testing.T, rec []byte, arity uint8) {
		dst := []byte{0xaa, 0xbb}
		got, err := b.AppendRecord(dst, rec, int(arity))
		r, derr := DecodeRow(rec)
		switch {
		case derr != nil:
			if !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("AppendRecord(%x) = %x, %v; DecodeRow fails with %v", rec, got, err, derr)
			}
		case len(r) != int(arity):
			if !errors.Is(err, ErrSchema) {
				t.Fatalf("AppendRecord(%x, %d) = %x, %v; the row has arity %d", rec, arity, got, err, len(r))
			}
		case err != nil:
			t.Fatalf("AppendRecord(%x) fails with %v; DecodeRow reads %v", rec, err, r)
		default:
			if want := EncodeRow(dst, r); !bytes.Equal(got, want) {
				t.Fatalf("AppendRecord(%x) = %x, EncodeRow(DecodeRow) = %x", rec, got, want)
			}
			for c := range r {
				if v, err := Column(got[len(dst):], c); err != nil || !core.Equal(v, r[c]) {
					t.Fatalf("Column(%x, %d) = %v, %v; want %v", got[len(dst):], c, v, err, r[c])
				}
			}
		}
		if err != nil && !bytes.Equal(got, dst) {
			t.Fatalf("a failed AppendRecord(%x) left %x, want %x", rec, got, dst)
		}
	})
}
