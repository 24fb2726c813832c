package table

import (
	"cmp"
	"encoding/binary"

	"xst/internal/core"
	"xst/internal/store"
)

// A tuple is a function from an index set to values (van Emden's
// reading of the paper's n-tuple), so a page-sized batch of tuples over
// one index set is a family of columns, one per position. Batch is that
// family: the unit of exchange between the operators of package exec.
// Each column holds its values in the form the data allows — integers
// unboxed, strings as bytes in one slab, anything else boxed — chosen
// per batch and per position from the values themselves, so a predicate,
// a hash key or a sum reads them without building a core.Value, and a
// result leaves the plan as columns too: EncodeRow writes a row's image
// straight from them, and a value is boxed (Value, AppendRows) only for
// a caller that asks for rows.

// ColKind says how a Col holds its values.
type ColKind uint8

// The column kinds.
const (
	ColAbsent ColKind = iota // not decoded: every value is nil
	ColInt                   // core.Int values, unboxed in Ints
	ColStr                   // core.Str values: value i is Bytes[Offs[i]:Offs[i+1]]
	ColAny                   // any values, boxed in Vals
)

// Col is one position of a Batch. Only the fields of its Kind are live.
type Col struct {
	Kind  ColKind
	Ints  []int64
	Offs  []uint32 // len = rows+1; Offs[0] is where the first string starts
	Bytes []byte
	Vals  []core.Value
}

// Batch is a family of equally long columns: row i is the tuple of the
// columns' i-th values.
type Batch struct {
	Len  int
	Cols []Col
}

// Str returns the bytes of string i of a ColStr column, a window of the
// slab.
func (c *Col) Str(i int) []byte { return c.Bytes[c.Offs[i]:c.Offs[i+1]] }

// Value boxes value i. A string is copied out of the slab, so the value
// outlives the batch.
func (c *Col) Value(i int) core.Value {
	switch c.Kind {
	case ColInt:
		return core.Int(c.Ints[i])
	case ColStr:
		return core.Str(c.Str(i))
	case ColAny:
		return c.Vals[i]
	default:
		return nil
	}
}

// Digest is core.Digest of value i, read without boxing it.
func (c *Col) Digest(i int) uint64 {
	switch c.Kind {
	case ColInt:
		return core.DigestInt(c.Ints[i])
	case ColStr:
		return core.DigestBytes(c.Str(i))
	case ColAny:
		return core.Digest(c.Vals[i])
	default:
		return 0
	}
}

// Compare is core.Compare(c.Value(i), v), read without boxing value i.
// Values of different kinds order by kind rank.
func (c *Col) Compare(i int, v core.Value) int {
	switch c.Kind {
	case ColInt:
		if x, ok := v.(core.Int); ok {
			return cmp.Compare(c.Ints[i], int64(x))
		}
		return cmp.Compare(core.KindInt, v.Kind())
	case ColStr:
		if x, ok := v.(core.Str); ok {
			return compareStr(c.Str(i), string(x))
		}
		return cmp.Compare(core.KindString, v.Kind())
	default:
		return core.Compare(c.Value(i), v)
	}
}

// compareStr orders a string's bytes against a string without copying
// either.
func compareStr(b []byte, s string) int {
	switch {
	case string(b) < s:
		return -1
	case string(b) > s:
		return 1
	default:
		return 0
	}
}

// CompareAt is core.Compare of value i of c and value j of d.
func (c *Col) CompareAt(i int, d *Col, j int) int {
	switch {
	case c.Kind == ColInt && d.Kind == ColInt:
		return cmp.Compare(c.Ints[i], d.Ints[j])
	case c.Kind == ColStr && d.Kind == ColStr:
		return compareStr(c.Str(i), string(d.Str(j)))
	case d.Kind == ColAny:
		return c.Compare(i, d.Vals[j])
	case c.Kind == ColAny:
		return -d.Compare(j, c.Vals[i])
	default: // an int and a string column: ColInt < ColStr as KindInt < KindString
		return cmp.Compare(c.Kind, d.Kind)
	}
}

// Equal is core.Equal of value i of c and value j of d.
func (c *Col) Equal(i int, d *Col, j int) bool {
	if c.Kind == ColAny && d.Kind == ColAny {
		return core.Equal(c.Vals[i], d.Vals[j])
	}
	return c.CompareAt(i, d, j) == 0
}

// start empties the column and gives it kind k, keeping its arrays.
func (c *Col) start(k ColKind) {
	c.Kind = k
	c.Ints, c.Offs, c.Bytes, c.Vals = c.Ints[:0], c.Offs[:0], c.Bytes[:0], c.Vals[:0]
	if k == ColStr {
		c.Offs = append(c.Offs, 0)
	}
}

// toAny boxes the column's first n values into Vals, for a value of
// another kind arriving after them.
func (c *Col) toAny(n int) {
	if c.Kind == ColAny {
		return
	}
	vals := c.Vals[:0]
	for i := 0; i < n; i++ {
		vals = append(vals, c.Value(i))
	}
	c.Kind, c.Vals = ColAny, vals
}

// appendSel appends the values sel picks from src (all n when sel is
// nil) to a column holding have values, demoting it to ColAny when src
// holds another kind.
func (c *Col) appendSel(have int, src *Col, sel []int32, n int) {
	if have == 0 {
		c.start(src.Kind)
	} else if c.Kind != src.Kind {
		c.toAny(have)
	}
	switch {
	case c.Kind == ColAbsent:
	case c.Kind == ColInt && sel == nil:
		c.Ints = append(Grow(c.Ints, have+n), src.Ints[:n]...)
	case c.Kind == ColInt:
		c.Ints = Grow(c.Ints, have+len(sel))
		for _, i := range sel {
			c.Ints = append(c.Ints, src.Ints[i])
		}
	case c.Kind == ColStr && sel == nil:
		lo, hi := src.Offs[0], src.Offs[n]
		base := uint32(len(c.Bytes)) - lo
		c.Bytes = append(Grow(c.Bytes, len(c.Bytes)+int(hi-lo)), src.Bytes[lo:hi]...)
		c.Offs = Grow(c.Offs, have+1+n)
		for _, o := range src.Offs[1 : n+1] {
			c.Offs = append(c.Offs, o+base)
		}
	case c.Kind == ColStr:
		size := 0
		for _, i := range sel {
			size += int(src.Offs[i+1] - src.Offs[i])
		}
		c.Bytes, c.Offs = Grow(c.Bytes, len(c.Bytes)+size), Grow(c.Offs, have+1+len(sel))
		for _, i := range sel {
			c.Bytes = append(c.Bytes, src.Str(int(i))...)
			c.Offs = append(c.Offs, uint32(len(c.Bytes)))
		}
	case src.Kind == ColAny && sel == nil:
		c.Vals = append(Grow(c.Vals, have+n), src.Vals[:n]...)
	case sel == nil:
		c.Vals = Grow(c.Vals, have+n)
		for i := 0; i < n; i++ {
			c.Vals = append(c.Vals, src.Value(i))
		}
	default:
		c.Vals = Grow(c.Vals, have+len(sel))
		for _, i := range sel {
			c.Vals = append(c.Vals, src.Value(int(i)))
		}
	}
}

// Append appends value i of src to a column holding have values,
// demoting it to ColAny when src holds another kind, as the page kernel
// does: an int or a string is copied unboxed.
func (c *Col) Append(have int, src *Col, i int) {
	c.appendSel(have, src, []int32{int32(i)}, i+1)
}

// Reset empties the batch, keeping its columns' arrays for reuse.
func (b *Batch) Reset() { b.Len = 0 }

// setWidth gives an empty batch w columns, reusing the ones it has.
func (b *Batch) setWidth(w int) {
	if cap(b.Cols) < w {
		b.Cols = append(b.Cols[:cap(b.Cols)], make([]Col, w-cap(b.Cols))...)
	}
	b.Cols = b.Cols[:w]
}

// AppendSel appends the rows sel picks from src (all of them when sel
// is nil) to b, copying their values; b takes src's width when empty.
func (b *Batch) AppendSel(src *Batch, sel []int32) {
	n := len(sel)
	if sel == nil {
		n = src.Len
	}
	if b.Len == 0 {
		b.setWidth(len(src.Cols))
	}
	for c := range src.Cols {
		b.Cols[c].appendSel(b.Len, &src.Cols[c], sel, src.Len)
	}
	b.Len += n
}

// Gather makes b the rows sel picks from src.
func (b *Batch) Gather(src *Batch, sel []int32) {
	b.Reset()
	b.AppendSel(src, sel)
}

// Join makes b the pairs of rows ls[k] of l and rs[k] of r, the
// columns of l then those of r.
func (b *Batch) Join(l *Batch, ls []int32, r *Batch, rs []int32) {
	lw := len(l.Cols)
	b.Len = 0
	b.setWidth(lw + len(r.Cols))
	for c := range l.Cols {
		b.Cols[c].appendSel(0, &l.Cols[c], ls, l.Len)
	}
	for c := range r.Cols {
		b.Cols[lw+c].appendSel(0, &r.Cols[c], rs, r.Len)
	}
	b.Len = len(ls)
}

// AppendRows boxes the batch's rows and appends them to rows as windows
// into slab, which is reused when it has room and grown otherwise; it
// returns both. A position that was not decoded is nil.
func (b *Batch) AppendRows(rows []Row, slab []core.Value) ([]Row, []core.Value) {
	w := len(b.Cols)
	start := len(slab)
	if cap(slab)-start < b.Len*w {
		slab = make([]core.Value, 0, b.Len*w)
		start = 0
	}
	slab = slab[:start+b.Len*w]
	for c := range b.Cols {
		col := &b.Cols[c]
		for i := 0; i < b.Len; i++ {
			slab[start+i*w+c] = col.Value(i)
		}
	}
	for i := 0; i < b.Len; i++ {
		lo := start + i*w
		rows = append(rows, slab[lo:lo+w:lo+w])
	}
	return rows, slab
}

// EncodeRow appends the image of row i to dst, written from the
// columns: byte for byte the package's EncodeRow of the row boxed.
func (b *Batch) EncodeRow(dst []byte, i int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b.Cols)))
	for c := range b.Cols {
		switch col := &b.Cols[c]; col.Kind {
		case ColInt:
			dst = core.AppendEncodeInt(dst, col.Ints[i])
		case ColStr:
			dst = core.AppendEncodeStr(dst, col.Str(i))
		default:
			dst = core.AppendEncode(dst, col.Value(i))
		}
	}
	return dst
}

// BatchOf returns a fresh batch holding rows in boxed columns of the
// given width: the form of rows that were never on a page.
func BatchOf(rows []Row, width int) *Batch {
	b := &Batch{Len: len(rows), Cols: make([]Col, width)}
	vals := make([]core.Value, len(rows)*width)
	for c := range b.Cols {
		col := vals[c*len(rows) : (c+1)*len(rows) : (c+1)*len(rows)]
		for i, r := range rows {
			col[i] = r[c]
		}
		b.Cols[c] = Col{Kind: ColAny, Vals: col}
	}
	return b
}

// PageBatch is the page-decode kernel: Decode turns every live record
// of one slotted page into one Batch the kernel owns and refills on the
// next Decode, so the batch and its arrays are scratch until then. A
// scan that owns one PageBatch pays per page, not per record: ints and
// strings are copied into the batch's arrays unboxed, and only a value
// of another kind is built (and may be kept; it never aliases the page
// or the batch). An entry point that promises retainable rows boxes
// them out of the batch.
//
// DecodeRow remains the per-record codec for record-at-a-time callers
// (Get, Cursor, the log) and is the oracle the kernel is tested against.
type PageBatch struct {
	b Batch
}

// Batch returns the batch Decode fills.
func (pb *PageBatch) Batch() *Batch { return &pb.b }

// Decode fills the batch with the live rows of p's first slots slots,
// in slot order, and returns it: a table version holds a prefix of its
// last page (store.HeapFile.Slots). need, when non-nil, marks the positions to decode: the
// encoded bytes of a position it leaves out (or does not reach) are
// skipped and that column is ColAbsent, so a column no operator reads
// costs no value. A row is a function from positions to values; an
// unread column is a position where it is left undefined. The records
// of a page are rows of one table and share one arity; a page whose
// records do not is corrupt.
func (pb *PageBatch) Decode(p store.SlottedPage, slots int, need []bool) (*Batch, error) {
	b := &pb.b
	b.Reset()
	for slot := 0; slot < slots; slot++ {
		rec, ok := p.Get(slot)
		if !ok {
			continue
		}
		if err := b.appendRecord(rec, need, slots); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// appendRecord decodes one encoded row onto the end of b. The first row
// fixes b's width and, per position, its column kind; rows is a sizing
// hint for the columns' arrays.
func (b *Batch) appendRecord(rec []byte, need []bool, rows int) error {
	arity, off := binary.Uvarint(rec)
	if off <= 0 || arity > uint64(len(rec)) {
		return core.ErrCorrupt
	}
	if b.Len == 0 {
		b.setWidth(int(arity))
	} else if arity != uint64(len(b.Cols)) {
		return core.ErrCorrupt
	}
	for c := range b.Cols {
		col := &b.Cols[c]
		var used int
		var err error
		if need == nil || (c < len(need) && need[c]) {
			used, err = col.decode(rec[off:], b.Len, rows)
		} else {
			col.Kind = ColAbsent
			used, err = core.Skip(rec[off:])
		}
		if err != nil {
			return err
		}
		off += used
	}
	if off != len(rec) {
		return core.ErrCorrupt
	}
	b.Len++
	return nil
}

// decode appends the value at the front of buf to a column holding have
// values and returns the bytes it used. The first value picks the
// column's kind; a value of another kind after it demotes the column to
// ColAny.
func (c *Col) decode(buf []byte, have, rows int) (int, error) {
	k, ok := core.PeekKind(buf)
	if !ok {
		return 0, core.ErrCorrupt
	}
	if have == 0 {
		kind := ColAny
		switch k {
		case core.KindInt:
			kind = ColInt
		case core.KindString:
			kind = ColStr
		}
		c.Reserve(kind, rows)
	}
	switch {
	case k == core.KindInt && c.Kind == ColInt:
		i, n, err := core.DecodeInt(buf)
		c.Ints = append(c.Ints, i)
		return n, err
	case k == core.KindString && c.Kind == ColStr:
		s, n, err := core.DecodeStrBytes(buf)
		c.Bytes = append(c.Bytes, s...)
		c.Offs = append(c.Offs, uint32(len(c.Bytes)))
		return n, err
	}
	v, n, err := core.Decode(buf)
	if err != nil {
		return 0, err
	}
	c.toAny(have)
	c.Vals = append(c.Vals, v)
	return n, nil
}

// Reserve empties the column and gives it kind k with room for n
// values, so appending that many (a string's bytes aside) never moves
// its arrays.
func (c *Col) Reserve(k ColKind, n int) {
	switch k {
	case ColInt:
		c.Ints = Grow(c.Ints[:0], n)
	case ColStr:
		c.Offs = Grow(c.Offs[:0], n+1)
	case ColAny:
		c.Vals = Grow(c.Vals[:0], n)
	}
	c.start(k)
}

// Reserve gives an empty b src's width and column kinds with room for n
// rows, a string column's bytes at src's mean rounded up, so appending
// n rows like src's moves no array.
func (b *Batch) Reserve(src *Batch, n int) {
	b.setWidth(len(src.Cols))
	for c, s := range src.Cols {
		d := &b.Cols[c]
		d.Reserve(s.Kind, n)
		if s.Kind == ColStr && src.Len > 0 {
			d.Bytes = Grow(d.Bytes, (int(s.Offs[src.Len]-s.Offs[0])+src.Len-1)/src.Len*n)
		}
	}
}

// Grow returns s with capacity for at least n elements, at least
// doubling it when it must move (append grows a large slice by 1.25×),
// so an array appended to batch by batch moves O(log rows) times.
func Grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return append(make([]T, 0, max(n, 2*cap(s))), s...)
	}
	return s
}
