package index

import (
	"math/rand/v2"
	"slices"
	"sync/atomic"

	"xst/internal/core"
	"xst/internal/store"
)

// HashIndex is a point-access index: a function from a key value to
// the set of records that hold it. Every version of one index shares a
// single append-only table of entries — digest, key, record id — in the
// order they were filed; a version is that table restricted to the
// entries below its bound, {e ∈ I | ord(e) < n}, and carries its own
// distinct-key count. A lookup walks one bucket chain, skips entries
// newer than its bound, and confirms each digest match with core.Equal,
// as every other keyed table does (core.Chains).
//
// The table has one writer — a build before publication, then the
// catalog's commits under its writer lock — and any number of
// lock-free readers. An entry and its chain link are written before the
// atomic store of the bucket head that publishes them, and neither
// changes afterwards; growing builds a new layout and publishes it with
// one atomic store. So WithInserts (delta.go) extends the newest
// version in place while every published version keeps answering
// exactly its own prefix.
type HashIndex struct {
	tab  *hashTable
	n    int // entries visible: ordinals below n
	keys int // distinct keys among them
}

// hashTable is the entry table the versions of one index share.
type hashTable struct {
	// mask selects the digest bits in use: all of them, except in
	// tests, which clear bits to force every shape of collision.
	mask  uint64
	count int // entries filed; only the writer touches it
	lay   atomic.Pointer[layout]
}

// layout is one generation of the table's arrays: entries and links
// at full capacity, and twice as many bucket heads.
type layout struct {
	heads []atomic.Int32 // bucket → 1 + its newest ordinal, 0 when empty
	next  []int32        // ordinal → the next older ordinal of its bucket, or -1
	ents  []hentry       // ordinal → entry
	shift uint           // 64 − log2(len(heads)): a mixed digest's top bits pick its bucket
}

// hentry is one filed record: the key's masked digest, the key itself
// (the row's boxed value) and the record id.
type hentry struct {
	dig uint64
	key core.Value
	rid store.RID
}

// NewHashIndex returns an empty hash index with room for n entries
// before its first growth step.
func NewHashIndex(n int) *HashIndex { return newHashIndex(n, ^uint64(0)) }

func newHashIndex(n int, mask uint64) *HashIndex {
	t := &hashTable{mask: mask}
	t.lay.Store(newLayout(n, nil))
	return &HashIndex{tab: t}
}

// newLayout returns a layout with room for n entries, at least, that
// holds ents, threaded oldest first so each chain runs newest first.
func newLayout(n int, ents []hentry) *layout {
	size, shift := 16, uint(60)
	for size < 2*n {
		size, shift = size<<1, shift-1
	}
	l := &layout{
		heads: make([]atomic.Int32, size),
		next:  make([]int32, size/2),
		ents:  make([]hentry, size/2),
		shift: shift,
	}
	copy(l.ents, ents)
	for id := range ents {
		l.link(int32(id))
	}
	return l
}

// bucketMul, drawn per process, keeps clients from searching offline
// for keys that share a bucket; chains are confirmed per key, so no
// result changes.
var bucketMul = rand.Uint64() | 1

// bucket mixes digest d into a bucket index, as core.Chains mixes its
// tags: the high half folded in, a multiply by bucketMul, top bits taken.
func (l *layout) bucket(d uint64) uint64 {
	return ((d ^ d>>32) * bucketMul) >> l.shift
}

// link files the written entry id at the head of its bucket; the
// atomic store publishes the entry and its link together.
func (l *layout) link(id int32) {
	b := &l.heads[l.bucket(l.ents[id].dig)]
	l.next[id] = b.Load() - 1
	b.Store(id + 1)
}

// Insert adds rid under key in place. It is for a version no reader
// holds yet — a build, or the successor WithInserts derives; a
// published index takes new entries through WithInserts. An older
// version first moves onto a copy of its own prefix.
func (h *HashIndex) Insert(key core.Value, rid store.RID) {
	if h.n != h.tab.count {
		h.branch()
	}
	t := h.tab
	d := core.Digest(key) & t.mask
	l := t.lay.Load()
	if !h.has(l, d, key) {
		h.keys++
	}
	if t.count == len(l.ents) {
		l = newLayout(2*t.count, l.ents)
		t.lay.Store(l)
	}
	l.ents[t.count] = hentry{dig: d, key: key, rid: rid}
	l.link(int32(t.count))
	t.count++
	h.n = t.count
}

// branch gives h a table of its own holding h's entries, so extending
// an older version leaves the entries its successors filed alone.
func (h *HashIndex) branch() {
	t := &hashTable{mask: h.tab.mask, count: h.n}
	t.lay.Store(newLayout(2*h.n, h.tab.lay.Load().ents[:h.n]))
	h.tab = t
}

// has reports whether h sees an entry filed under key, whose masked
// digest is d.
func (h *HashIndex) has(l *layout, d uint64, key core.Value) bool {
	for id := l.heads[l.bucket(d)].Load() - 1; id >= 0; id = l.next[id] {
		if e := &l.ents[id]; int(id) < h.n && e.dig == d && core.Equal(e.key, key) {
			return true
		}
	}
	return false
}

// Probe appends the records filed under key, in insertion order, to dst
// and returns it. It walks one chain and allocates nothing unless dst
// must grow.
func (h *HashIndex) Probe(dst []store.RID, key core.Value) []store.RID {
	d := core.Digest(key) & h.tab.mask
	l := h.tab.lay.Load()
	start := len(dst)
	for id := l.heads[l.bucket(d)].Load() - 1; id >= 0; id = l.next[id] {
		if e := &l.ents[id]; int(id) < h.n && e.dig == d && core.Equal(e.key, key) {
			dst = append(dst, e.rid)
		}
	}
	slices.Reverse(dst[start:])
	return dst
}

// Lookup returns the records filed under the key whose canonical
// encoding (core.Key) is key, in insertion order, or nil: it decodes
// the key and probes. It is the form the benchmark's index micro calls.
func (h *HashIndex) Lookup(key string) []store.RID {
	v, n, err := core.Decode([]byte(key))
	if err != nil || n != len(key) {
		return nil
	}
	return h.Probe(nil, v)
}

// Len returns the number of distinct keys.
func (h *HashIndex) Len() int { return h.keys }

// Depth reports the number of delta layers a lookup consults. The table
// has none, so it is always 0; kept for the benchmark's
// index.hash_depth instrument.
func (h *HashIndex) Depth() int { return 0 }
