package index

import "xst/internal/store"

// Incremental index maintenance under MVCC. A published index version
// is an immutable function from keys to postings: plans compiled against
// an old planner snapshot keep probing it, lock-free, while the catalog
// publishes successors, so a commit cannot Insert into the structure it
// found. It derives the next version by path copying instead, and both
// index kinds do it the same way:
//
//   - HashIndex.WithInserts copies the trie nodes on each inserted key's
//     root-to-leaf path (hash.go);
//   - BTree.Inserted copies the tree nodes on each inserted key's
//     root-to-leaf path.
//
// Either way a commit costs O(entries · log n) node copies, a touched
// posting list is copied before it grows, and every untouched subtree is
// shared with the committed version — the copy-on-write discipline the
// buffer pool applies to page images.

// Entry is one (key, rid) pair staged for incremental maintenance.
type Entry struct {
	Key string
	RID store.RID
}

// WithInserts returns a new index equal to h plus the entries, without
// modifying h.
func (h *HashIndex) WithInserts(entries []Entry) *HashIndex {
	nw := &HashIndex{root: h.root, size: h.size, own: new(owner), mask: h.mask}
	for _, e := range entries {
		nw.Insert(e.Key, e.RID)
	}
	return nw
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
