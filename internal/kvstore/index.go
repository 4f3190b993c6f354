package kvstore

import "slices"

// keyIndex is the store's image: a B+tree of the live keys whose leaves
// hold each key's value beside it. Leaves hold up to maxNode entries in
// key order and are chained both ways, so once seek has walked down to a
// bound — one binary search per level — a point read is one more binary
// search, and ascending and descending iteration are plain slice walks
// that cross to the neighbouring leaf. An inner node holds one separator
// per child after the first: keys[i] is a lower bound for everything
// under kids[i+1] and a strict upper bound for everything under kids[i].
// Separators are copied up on a split and never have to name a live key,
// so deleting one leaves them valid.
//
// A node that grows past maxNode splits in half; a node that shrinks
// below minNode is folded into a neighbour under the same parent when
// the two fit into one (nothing is borrowed: a small node whose
// neighbour is nearly full stays small, which costs space, not order).
// Every change therefore moves at most maxNode entries per level and
// there is no slice whose length grows with the store.
//
// The index is not synchronised; Store.mu guards it.
type keyIndex struct {
	root *node
	len  int // live keys
}

const (
	maxNode = 64
	minNode = maxNode / 4
	// bulkFill is how full build packs a node: room for inserts before
	// the first split, without halving the density a split would leave.
	bulkFill = maxNode * 3 / 4
)

type node struct {
	keys       []string
	vals       [][]byte // a leaf's values: vals[i] is stored under keys[i]
	kids       []*node  // nil in a leaf
	next, prev *node    // leaf chain
}

func (n *node) size() int {
	if n.kids != nil {
		return len(n.kids)
	}
	return len(n.keys)
}

// child returns the position of the child of inner node n whose range
// holds key.
func (n *node) child(key string) int {
	i, found := slices.BinarySearch(n.keys, key)
	if found {
		i++
	}
	return i
}

func newLeaf(keys []string, vals [][]byte) *node {
	return &node{keys: append(make([]string, 0, maxNode+1), keys...), vals: append(make([][]byte, 0, maxNode+1), vals...)}
}

// buildIndex bulk-loads an index from items, which must be in strictly
// ascending key order.
func buildIndex(items []Entry) keyIndex {
	if len(items) == 0 {
		return keyIndex{root: newLeaf(nil, nil)}
	}
	// level is the row of nodes being grouped under parents; mins[i] is
	// the smallest key under level[i], the separator its parent needs.
	var level []*node
	var mins []string
	for i := 0; i < len(items); i += bulkFill {
		leaf := newLeaf(nil, nil)
		for _, it := range items[i:min(i+bulkFill, len(items))] {
			leaf.keys, leaf.vals = append(leaf.keys, it.Key), append(leaf.vals, it.Val)
		}
		if len(level) > 0 {
			leaf.prev = level[len(level)-1]
			leaf.prev.next = leaf
		}
		level, mins = append(level, leaf), append(mins, items[i].Key)
	}
	for len(level) > 1 {
		var up []*node
		var upMins []string
		for i := 0; i < len(level); i += bulkFill {
			j := min(i+bulkFill, len(level))
			up = append(up, &node{
				keys: append(make([]string, 0, maxNode), mins[i+1:j]...),
				kids: append(make([]*node, 0, maxNode+1), level[i:j]...),
			})
			upMins = append(upMins, mins[i])
		}
		level, mins = up, upMins
	}
	return keyIndex{root: level[0], len: len(items)}
}

// get returns the value stored under key.
func (ix *keyIndex) get(key string) ([]byte, bool) {
	n, i := ix.seek(key)
	if i < len(n.keys) && n.keys[i] == key {
		return n.vals[i], true
	}
	return nil, false
}

// put stores val under key, replacing the value of a key already
// present.
func (ix *keyIndex) put(key string, val []byte) {
	sep, right, added := ix.root.put(key, val)
	if right != nil {
		ix.root = &node{keys: []string{sep}, kids: []*node{ix.root, right}}
	}
	if added {
		ix.len++
	}
}

// put stores val under key below n and reports whether the key is new.
// When that overflows n, the upper half moves to a new right sibling,
// which is returned with its separator.
func (n *node) put(key string, val []byte) (sep string, right *node, added bool) {
	if n.kids == nil {
		i, found := slices.BinarySearch(n.keys, key)
		if found {
			n.vals[i] = val
			return "", nil, false
		}
		n.keys, n.vals = slices.Insert(n.keys, i, key), slices.Insert(n.vals, i, val)
		if len(n.keys) <= maxNode {
			return "", nil, true
		}
		mid := len(n.keys) / 2
		right = newLeaf(n.keys[mid:], n.vals[mid:])
		n.keys, n.vals = slices.Delete(n.keys, mid, len(n.keys)), slices.Delete(n.vals, mid, len(n.vals))
		right.prev, right.next = n, n.next
		if n.next != nil {
			n.next.prev = right
		}
		n.next = right
		return right.keys[0], right, true
	}
	ci := n.child(key)
	sep, kid, added := n.kids[ci].put(key, val)
	if kid == nil {
		return "", nil, added
	}
	n.keys = slices.Insert(n.keys, ci, sep)
	n.kids = slices.Insert(n.kids, ci+1, kid)
	if len(n.kids) <= maxNode {
		return "", nil, added
	}
	mid := len(n.keys) / 2
	sep = n.keys[mid]
	right = &node{keys: slices.Clone(n.keys[mid+1:]), kids: slices.Clone(n.kids[mid+1:])}
	n.keys = slices.Delete(n.keys, mid, len(n.keys))
	n.kids = slices.Delete(n.kids, mid+1, len(n.kids))
	return sep, right, added
}

// delete removes key and reports whether it was present.
func (ix *keyIndex) delete(key string) bool {
	removed := ix.root.delete(key)
	for len(ix.root.kids) == 1 {
		ix.root = ix.root.kids[0]
	}
	if removed {
		ix.len--
	}
	return removed
}

func (n *node) delete(key string) bool {
	if n.kids == nil {
		i, found := slices.BinarySearch(n.keys, key)
		if found {
			n.keys, n.vals = slices.Delete(n.keys, i, i+1), slices.Delete(n.vals, i, i+1)
		}
		return found
	}
	ci := n.child(key)
	removed := n.kids[ci].delete(key)
	if n.kids[ci].size() >= minNode || len(n.kids) == 1 {
		return removed
	}
	// Fold the shrunken child and a neighbour into one node when they
	// fit. An emptied child always fits, so an empty leaf survives only
	// as an only child — which iteration steps over.
	li := min(ci, len(n.kids)-2)
	l, r := n.kids[li], n.kids[li+1]
	if l.size()+r.size() > maxNode {
		return removed
	}
	if l.kids == nil {
		l.keys, l.vals = append(l.keys, r.keys...), append(l.vals, r.vals...)
		l.next = r.next
		if r.next != nil {
			r.next.prev = l
		}
	} else {
		l.keys = append(append(l.keys, n.keys[li]), r.keys...)
		l.kids = append(l.kids, r.kids...)
	}
	n.keys = slices.Delete(n.keys, li, li+1)
	n.kids = slices.Delete(n.kids, li+1, li+2)
	return removed
}

// seek returns the leaf and position of the first key >= key. The
// position may be one past the leaf's end: the key is then the first of
// the following leaves.
func (ix *keyIndex) seek(key string) (*node, int) {
	n := ix.root
	for n.kids != nil {
		n = n.kids[n.child(key)]
	}
	i, _ := slices.BinarySearch(n.keys, key)
	return n, i
}

// ascend calls fn for every key >= from, with its value, in ascending
// order until fn returns false.
func (ix *keyIndex) ascend(from string, fn func(key string, val []byte) bool) {
	for n, i := ix.seek(from); n != nil; n, i = n.next, 0 {
		for ; i < len(n.keys); i++ {
			if !fn(n.keys[i], n.vals[i]) {
				return
			}
		}
	}
}

// descend calls fn for every key < before in descending order until fn
// returns false; with unbounded set it starts from the last key instead.
func (ix *keyIndex) descend(before string, unbounded bool, fn func(key string) bool) {
	var n *node
	var i int
	if unbounded {
		for n = ix.root; n.kids != nil; n = n.kids[len(n.kids)-1] {
		}
		i = len(n.keys)
	} else {
		n, i = ix.seek(before)
	}
	for n != nil {
		for i--; i >= 0; i-- {
			if !fn(n.keys[i]) {
				return
			}
		}
		if n = n.prev; n != nil {
			i = len(n.keys)
		}
	}
}
