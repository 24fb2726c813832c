package index

import (
	"xst/internal/core"
	"xst/internal/store"
)

// Incremental index maintenance under MVCC. A published index version
// is an immutable function from keys to postings: plans compiled against
// an old planner snapshot keep probing it, lock-free, while the catalog
// publishes successors. The two index kinds derive a successor
// differently:
//
//   - HashIndex.WithInserts appends to the entry table all versions
//     share and returns a version whose bound takes in the new entries
//     (hash.go). Older versions skip them by ordinal, so a commit costs
//     its entries and one version header, whatever the index's size;
//   - BTree.Inserted copies the tree nodes on each inserted key's
//     root-to-leaf path, O(entries · log n) node copies per commit, a
//     touched posting list copied before it grows, and every untouched
//     subtree shared with the committed version.

// Entry is one (key, rid) pair staged for a btree's incremental
// maintenance, keyed by core.OrderKey.
type Entry struct {
	Key string
	RID store.RID
}

// HashEntry is one (key, rid) pair staged for a hash index.
type HashEntry struct {
	Key core.Value
	RID store.RID
}

// WithInserts returns a new version equal to h plus the entries, without
// modifying h. Extending the newest version writes the entries in place
// and allocates only the new version; extending an older one first
// copies the entries it sees, so branching leaves its successors alone.
func (h *HashIndex) WithInserts(entries []HashEntry) *HashIndex {
	nw := *h
	for _, e := range entries {
		nw.Insert(e.Key, e.RID)
	}
	return &nw
}

// Inserted returns a new tree equal to t plus the entries, without
// modifying t: inserts path-copy from the root down, so the two trees
// share every untouched subtree and posting list.
func (t *BTree) Inserted(entries []Entry) *BTree {
	nt := &BTree{root: t.root, size: t.size}
	for _, e := range entries {
		root, mid, right := nt.root.insertCopy(e.Key, e.RID, nt)
		if right != nil {
			root = &btNode{keys: []string{mid}, children: []*btNode{root, right}}
		}
		nt.root = root
	}
	return nt
}

// clone shallow-copies a node: fresh key/val/child slices, shared
// posting lists and subtrees.
func (n *btNode) clone() *btNode {
	c := &btNode{leaf: n.leaf, keys: append([]string(nil), n.keys...)}
	if n.leaf {
		c.vals = append([][]store.RID(nil), n.vals...)
	} else {
		c.children = append([]*btNode(nil), n.children...)
	}
	return c
}

// insertCopy is btNode.insert in persistent form: it returns the
// replacement for n (a path copy) plus split information. Posting-list
// appends copy the list first — the backing array is shared with the
// committed tree.
func (n *btNode) insertCopy(key string, rid store.RID, t *BTree) (*btNode, string, *btNode) {
	c := n.clone()
	if c.leaf {
		i := lowerBound(c.keys, key)
		if i < len(c.keys) && c.keys[i] == key {
			ps := make([]store.RID, len(c.vals[i])+1)
			copy(ps, c.vals[i])
			ps[len(ps)-1] = rid
			c.vals[i] = ps
			return c, "", nil
		}
		c.keys = append(c.keys, "")
		copy(c.keys[i+1:], c.keys[i:])
		c.keys[i] = key
		c.vals = append(c.vals, nil)
		copy(c.vals[i+1:], c.vals[i:])
		c.vals[i] = []store.RID{rid}
		t.size++
		if len(c.keys) <= btreeOrder {
			return c, "", nil
		}
		mid := len(c.keys) / 2
		right := &btNode{
			leaf: true,
			keys: append([]string(nil), c.keys[mid:]...),
			vals: append([][]store.RID(nil), c.vals[mid:]...),
		}
		c.keys = c.keys[:mid]
		c.vals = c.vals[:mid]
		return c, right.keys[0], right
	}
	i := lowerBound(c.keys, key)
	if i < len(c.keys) && c.keys[i] == key {
		i++
	}
	child, midKey, right := c.children[i].insertCopy(key, rid, t)
	c.children[i] = child
	if right == nil {
		return c, "", nil
	}
	c.keys = append(c.keys, "")
	copy(c.keys[i+1:], c.keys[i:])
	c.keys[i] = midKey
	c.children = append(c.children, nil)
	copy(c.children[i+2:], c.children[i+1:])
	c.children[i+1] = right
	if len(c.keys) <= btreeOrder {
		return c, "", nil
	}
	mid := len(c.keys) / 2
	sep := c.keys[mid]
	r := &btNode{
		keys:     append([]string(nil), c.keys[mid+1:]...),
		children: append([]*btNode(nil), c.children[mid+1:]...),
	}
	c.keys = c.keys[:mid]
	c.children = c.children[:mid+1]
	return c, sep, r
}
