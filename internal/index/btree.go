// Package index provides the prestructured access paths the paper's
// performance discussion contrasts with dynamic set restructuring: an
// in-memory B+tree for ordered/range access and a hash index for point
// access. B+tree keys are order-preserving encodings (core.OrderKey),
// hash keys are the values themselves; postings are record ids.
// Experiment E10 compares lookup mixes through these indexes against
// XSP restructure-then-scan plans.
package index

import "xst/internal/store"

// btreeOrder is the maximum number of keys per node.
const btreeOrder = 64

// BTree is an in-memory B+tree from string keys to RID postings.
type BTree struct {
	root *btNode
	size int
}

type btNode struct {
	leaf     bool
	keys     []string
	children []*btNode     // interior: len(keys)+1
	vals     [][]store.RID // leaf: parallel to keys
}

// NewBTree returns an empty tree.
func NewBTree() *BTree {
	return &BTree{root: &btNode{leaf: true}}
}

// Len returns the number of distinct keys.
func (t *BTree) Len() int { return t.size }

// Insert adds rid under key (duplicates append to the posting list).
func (t *BTree) Insert(key string, rid store.RID) {
	mid, right := t.root.insert(key, rid, t)
	if right != nil {
		t.root = &btNode{
			keys:     []string{mid},
			children: []*btNode{t.root, right},
		}
	}
}

// lowerBound returns the first index i with keys[i] >= key.
func lowerBound(keys []string, key string) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		m := (lo + hi) / 2
		if keys[m] < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// insert returns a separator key and new right sibling when this node
// split.
func (n *btNode) insert(key string, rid store.RID, t *BTree) (string, *btNode) {
	if n.leaf {
		i := lowerBound(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			n.vals[i] = append(n.vals[i], rid)
			return "", nil
		}
		n.keys = append(n.keys, "")
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.vals = append(n.vals, nil)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = []store.RID{rid}
		t.size++
		if len(n.keys) <= btreeOrder {
			return "", nil
		}
		// Split leaf.
		mid := len(n.keys) / 2
		right := &btNode{
			leaf: true,
			keys: append([]string(nil), n.keys[mid:]...),
			vals: append([][]store.RID(nil), n.vals[mid:]...),
		}
		n.keys = n.keys[:mid]
		n.vals = n.vals[:mid]
		return right.keys[0], right
	}
	i := lowerBound(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		i++
	}
	midKey, right := n.children[i].insert(key, rid, t)
	if right == nil {
		return "", nil
	}
	n.keys = append(n.keys, "")
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = midKey
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
	if len(n.keys) <= btreeOrder {
		return "", nil
	}
	// Split interior.
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	r := &btNode{
		keys:     append([]string(nil), n.keys[mid+1:]...),
		children: append([]*btNode(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return sep, r
}

// Lookup returns the postings for a key (nil if absent).
func (t *BTree) Lookup(key string) []store.RID {
	n := t.root
	for !n.leaf {
		i := lowerBound(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			i++
		}
		n = n.children[i]
	}
	i := lowerBound(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		return n.vals[i]
	}
	return nil
}

// Range visits every (key, postings) with lo <= key < hi in key order,
// stopping early on false. An empty hi means unbounded. The walk is a
// recursive in-order descent rather than a leaf chain: persistent
// (path-copied) trees share subtrees across versions, where sibling
// links would dangle into older versions.
func (t *BTree) Range(lo, hi string, fn func(key string, rids []store.RID) bool) {
	t.root.rangeVisit(lo, hi, fn)
}

// rangeVisit reports whether the walk should continue past n.
func (n *btNode) rangeVisit(lo, hi string, fn func(key string, rids []store.RID) bool) bool {
	if n.leaf {
		for i := lowerBound(n.keys, lo); i < len(n.keys); i++ {
			k := n.keys[i]
			if hi != "" && k >= hi {
				return false
			}
			if !fn(k, n.vals[i]) {
				return false
			}
		}
		return true
	}
	i := lowerBound(n.keys, lo)
	if i < len(n.keys) && n.keys[i] == lo {
		i++
	}
	for ; i < len(n.children); i++ {
		if !n.children[i].rangeVisit(lo, hi, fn) {
			return false
		}
		// The separator right of child i is the next child's first key:
		// stop descending once it reaches hi.
		if i < len(n.keys) && hi != "" && n.keys[i] >= hi {
			return false
		}
	}
	return true
}

// Keys returns every key in order (mainly for tests).
func (t *BTree) Keys() []string {
	var out []string
	t.Range("", "", func(k string, _ []store.RID) bool {
		out = append(out, k)
		return true
	})
	return out
}

// Depth returns the tree height (1 for a lone leaf).
func (t *BTree) Depth() int {
	d := 1
	n := t.root
	for !n.leaf {
		d++
		n = n.children[0]
	}
	return d
}
