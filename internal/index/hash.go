package index

import (
	"math/bits"
	"slices"

	"xst/internal/store"
)

// HashIndex is a point-access index from encoded keys to RID postings,
// stored as a persistent hash array mapped trie: 32-way bitmap nodes
// indexed by successive 5-bit digits of a fixed 64-bit hash of the key,
// with full-key comparison at the leaves and a linear bucket under the
// last digit for keys whose hashes collide entirely.
//
// Every node carries the owner token of the index version that
// allocated it. A version edits its own nodes in place — that is the
// bulk build, Insert before publication — and copies any other node it
// must change, so WithInserts (delta.go) derives a successor by copying
// only the root-to-leaf paths it touches while every published version
// stays immutable for its lock-free readers.
type HashIndex struct {
	root *hnode
	size int // distinct keys, carried per version
	own  *owner
	// mask selects the hash bits in use: all of them, except in tests,
	// which clear bits to force every shape of collision.
	mask uint64
}

// owner marks the nodes one index version may edit in place. It has a
// field because distinct zero-size allocations may share an address.
type owner struct{ _ byte }

// hnode is one trie node. A hash digit d leads to a subtree (bit d of
// nodemap), to one entry (bit d of datamap), or nowhere; children and
// entries hold the subtrees and the entries in digit order. Below the
// last digit the bitmaps are unused and entries is a collision bucket.
type hnode struct {
	own      *owner
	nodemap  uint32
	datamap  uint32
	children []*hnode
	entries  []hentry
}

// hentry is one key with its postings in insertion order.
type hentry struct {
	key  string
	rids []store.RID
}

const (
	digitBits = 5
	digitMask = 1<<digitBits - 1
	hashBits  = 64
)

// NewHashIndex returns an empty hash index.
func NewHashIndex() *HashIndex { return newHashIndex(^uint64(0)) }

func newHashIndex(mask uint64) *HashIndex {
	own := new(owner)
	return &HashIndex{root: &hnode{own: own}, own: own, mask: mask}
}

// hash is the key's trie path. It calls hashKey directly rather than
// through a func value, so a caller's temporary key stays off the heap.
func (h *HashIndex) hash(s string) uint64 { return hashKey(s) & h.mask }

// hashKey is FNV-1a over the key bytes with a final avalanche, so the
// low digits — the top trie levels — depend on every input byte. It is
// unseeded: the same key takes the same path in every process.
func hashKey(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	return h ^ h>>32
}

// Insert adds rid under key in place. Like BTree.Insert it is for
// building an index before publication; a published index takes new
// entries through WithInserts.
func (h *HashIndex) Insert(key string, rid store.RID) {
	h.root = h.put(h.root, 0, h.hash(key), key, rid)
}

// Lookup returns the postings for key in insertion order (nil if
// absent). It is one descent and allocates nothing; the result is
// shared with the index and must not be modified.
func (h *HashIndex) Lookup(key string) []store.RID {
	hv := h.hash(key)
	n := h.root
	for shift := uint(0); shift < hashBits; shift += digitBits {
		bit := uint32(1) << (hv >> shift & digitMask)
		if n.nodemap&bit != 0 {
			n = n.children[bits.OnesCount32(n.nodemap&(bit-1))]
			continue
		}
		if n.datamap&bit != 0 {
			if e := &n.entries[bits.OnesCount32(n.datamap&(bit-1))]; e.key == key {
				return e.rids
			}
		}
		return nil
	}
	if i := n.find(key); i >= 0 {
		return n.entries[i].rids
	}
	return nil
}

// Len returns the number of distinct keys.
func (h *HashIndex) Len() int { return h.size }

// Depth reports the number of delta layers a lookup consults. The trie
// has none, so it is always 0; kept for the benchmark's
// index.hash_depth instrument.
func (h *HashIndex) Depth() int { return 0 }

// find returns the position of key among a collision bucket's entries.
func (n *hnode) find(key string) int {
	for i := range n.entries {
		if n.entries[i].key == key {
			return i
		}
	}
	return -1
}

// editable returns n itself when this version owns it, else a copy it
// owns. The copy shares subtrees and posting lists; capping each list
// at its length makes the first append to one reallocate instead of
// writing into an array other versions read.
func (h *HashIndex) editable(n *hnode) *hnode {
	if n.own == h.own {
		return n
	}
	c := &hnode{
		own: h.own, nodemap: n.nodemap, datamap: n.datamap,
		children: slices.Clone(n.children), entries: slices.Clone(n.entries),
	}
	for i := range c.entries {
		r := c.entries[i].rids
		c.entries[i].rids = r[:len(r):len(r)]
	}
	return c
}

// leaf returns a fresh node at the given hash offset holding one entry,
// with room for the second that its caller is about to add.
func (h *HashIndex) leaf(shift uint, e hentry) *hnode {
	n := &hnode{own: h.own, entries: append(make([]hentry, 0, 2), e)}
	if shift < hashBits {
		n.datamap = 1 << (h.hash(e.key) >> shift & digitMask)
	}
	return n
}

// put adds rid under key in the subtree n, whose digit starts at bit
// shift of the hash, and returns the subtree's root: n when this
// version owns it, a copy otherwise.
func (h *HashIndex) put(n *hnode, shift uint, hv uint64, key string, rid store.RID) *hnode {
	n = h.editable(n)
	if shift >= hashBits {
		if i := n.find(key); i >= 0 {
			n.entries[i].rids = append(n.entries[i].rids, rid)
			return n
		}
		n.entries = append(n.entries, hentry{key, []store.RID{rid}})
		h.size++
		return n
	}
	bit := uint32(1) << (hv >> shift & digitMask)
	ci := bits.OnesCount32(n.nodemap & (bit - 1))
	ei := bits.OnesCount32(n.datamap & (bit - 1))
	switch {
	case n.nodemap&bit != 0:
		n.children[ci] = h.put(n.children[ci], shift+digitBits, hv, key, rid)
	case n.datamap&bit == 0:
		n.entries = slices.Insert(n.entries, ei, hentry{key, []store.RID{rid}})
		n.datamap |= bit
		h.size++
	case n.entries[ei].key == key:
		n.entries[ei].rids = append(n.entries[ei].rids, rid)
	default:
		// Two keys share the hash up to this digit: the resident moves
		// one level down and the new key joins it there.
		sub := h.put(h.leaf(shift+digitBits, n.entries[ei]), shift+digitBits, hv, key, rid)
		n.entries = slices.Delete(n.entries, ei, ei+1)
		n.datamap &^= bit
		n.children = slices.Insert(n.children, ci, sub)
		n.nodemap |= bit
	}
	return n
}
