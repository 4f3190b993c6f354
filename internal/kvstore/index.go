package kvstore

import (
	"slices"
	"strings"
	"unsafe"
)

// keyIndex is the store's image: a B+tree of the live keys whose leaves
// hold each key's value beside it. Leaves hold up to maxNode entries in
// key order and are chained both ways, so once seek has walked down to a
// bound — one binary search per level — a point read is one more binary
// search, and ascending and descending iteration are plain walks that
// cross to the neighbouring leaf. An inner node holds one separator per
// child after the first: keys[i] is a lower bound for everything under
// kids[i+1] and a strict upper bound for everything under kids[i].
// Separators are copied up on a split and never have to name a live key,
// so deleting one leaves them valid.
//
// A leaf is packed: the prefix its keys share is stored once, and each
// key's suffix and value sit back to back in one append-only arena,
// found through a 12-byte record per key, in key order. An insert
// appends and shifts the records; a key without the prefix first
// rewrites the leaf under a shorter one. Overwrites and deletes leave
// dead bytes, and a leaf rewrites itself into a fresh arena once they
// outweigh its live ones, and at every split and merge. Arena bytes are
// never written twice, so a value handed out as a capped slice of an
// arena stays valid; keys handed out are new strings.
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
	// maxEntry keeps a leaf's arena, dead bytes included, under 4 GiB.
	maxEntry = 1 << 25
)

// ent is one leaf entry: the key's suffix past the leaf's prefix is
// data[off:off+klen], and its value follows at once, vlen bytes long.
type ent struct{ off, klen, vlen uint32 }

type node struct {
	keys []string // an inner node's separators
	kids []*node  // an inner node's children; nil in a leaf
	// A leaf's keys all start with prefix; ents holds one record per key,
	// in key order, into data, of which dead bytes are unreferenced.
	prefix     string
	data       []byte
	ents       []ent
	dead       int
	next, prev *node // leaf chain
}

func (n *node) size() int {
	if n.kids != nil {
		return len(n.kids)
	}
	return len(n.ents)
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

func (n *node) suffix(i int) []byte {
	e := n.ents[i]
	return n.data[e.off : e.off+e.klen]
}

func (n *node) key(i int) string { return n.prefix + string(n.suffix(i)) }

func (n *node) val(i int) []byte {
	e := n.ents[i]
	end := e.off + e.klen + e.vlen
	return n.data[e.off+e.klen : end : end]
}

// search returns the position in leaf n of the first key >= key, and
// whether that is key itself. It allocates nothing.
func (n *node) search(key string) (int, bool) {
	tail, ok := strings.CutPrefix(key, n.prefix)
	if !ok {
		if key < n.prefix {
			return 0, false
		}
		return len(n.ents), false
	}
	i, j := 0, len(n.ents)
	for i < j {
		if h := int(uint(i+j) >> 1); string(n.suffix(h)) < tail {
			i = h + 1
		} else {
			j = h
		}
	}
	return i, i < len(n.ents) && string(n.suffix(i)) == tail
}

// add appends the entry for key n.prefix+head+tail with value val to
// n's arena and returns its record.
func (n *node) add(head string, tail, val []byte) ent {
	off := len(n.data)
	n.data = append(append(append(n.data, head...), tail...), val...)
	return ent{uint32(off), uint32(len(head) + len(tail)), uint32(len(val))}
}

// run is the entries [i, j) of leaf n.
type run struct {
	n    *node
	i, j int
}

// pack rewrites leaf n to hold the entries of runs, in order, in one
// fresh arena under prefix, which every key of runs must start with.
// The old arena is left as it was: values handed out of it stay valid.
func (n *node) pack(prefix string, runs ...run) {
	size, count := 0, 0
	for _, r := range runs {
		for _, e := range r.n.ents[r.i:r.j] {
			size += len(r.n.prefix) + int(e.klen+e.vlen) - len(prefix)
		}
		count += r.j - r.i
	}
	m := node{prefix: strings.Clone(prefix), data: make([]byte, 0, size), ents: make([]ent, 0, count)}
	for _, r := range runs {
		c := min(len(prefix), len(r.n.prefix))
		for i := r.i; i < r.j; i++ {
			m.ents = append(m.ents, m.add(r.n.prefix[c:], r.n.suffix(i)[len(prefix)-c:], r.n.val(i)))
		}
	}
	n.prefix, n.data, n.ents, n.dead = m.prefix, m.data, m.ents, 0
}

// compact repacks leaf n once its dead bytes outnumber its live ones.
func (n *node) compact() {
	if n.dead > len(n.data)-n.dead {
		n.pack(n.prefix, run{n, 0, len(n.ents)})
	}
}

func commonPrefix(a, b string) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return a[:i]
}

// buildIndex bulk-loads an index from items, which must be in strictly
// ascending key order. It copies their values.
func buildIndex(items []Entry) keyIndex {
	if len(items) == 0 {
		return keyIndex{root: &node{}}
	}
	// level is the row of nodes being grouped under parents; mins[i] is
	// the smallest key under level[i], the separator its parent needs.
	var level []*node
	var mins []string
	for i := 0; i < len(items); i += bulkFill {
		chunk := items[i:min(i+bulkFill, len(items))]
		leaf := &node{}
		for _, it := range chunk {
			leaf.ents = append(leaf.ents, leaf.add(it.Key, nil, it.Val))
		}
		leaf.pack(commonPrefix(chunk[0].Key, chunk[len(chunk)-1].Key), run{leaf, 0, len(chunk)})
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
	n, i, found := ix.seek(key)
	if !found {
		return nil, false
	}
	return n.val(i), true
}

// put stores a copy of val under key, replacing the value of a key
// already present.
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
		i, found := n.search(key)
		if found {
			n.dead += int(n.ents[i].klen + n.ents[i].vlen)
			n.ents[i] = n.add(key[len(n.prefix):], nil, val)
			n.compact()
			return "", nil, false
		}
		if !strings.HasPrefix(key, n.prefix) {
			n.pack(commonPrefix(n.prefix, key), run{n, 0, len(n.ents)})
		}
		if len(n.ents) == cap(n.ents) { // grow by a quarter, not append's double
			n.ents = append(make([]ent, 0, min(maxNode+1, len(n.ents)*5/4+1)), n.ents...)
		}
		n.ents = slices.Insert(n.ents, i, n.add(key[len(n.prefix):], nil, val))
		if len(n.ents) <= maxNode {
			return "", nil, true
		}
		mid, end := len(n.ents)/2, len(n.ents)
		right = &node{}
		right.pack(commonPrefix(n.key(mid), n.key(end-1)), run{n, mid, end})
		n.pack(commonPrefix(n.key(0), n.key(mid-1)), run{n, 0, mid})
		right.prev, right.next = n, n.next
		if n.next != nil {
			n.next.prev = right
		}
		n.next = right
		return right.key(0), right, true
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
		i, found := n.search(key)
		if found {
			e := n.ents[i]
			n.dead += int(e.klen + e.vlen)
			n.ents = slices.Delete(n.ents, i, i+1)
			n.compact()
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
		l.pack(commonPrefix(l.prefix, r.prefix), run{l, 0, len(l.ents)}, run{r, 0, len(r.ents)})
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

// seek returns the leaf and position of the first key >= key, and
// whether that is key itself. The position may be one past the leaf's
// end: the key is then the first of the following leaves.
func (ix *keyIndex) seek(key string) (*node, int, bool) {
	n := ix.root
	for n.kids != nil {
		n = n.kids[n.child(key)]
	}
	i, found := n.search(key)
	return n, i, found
}

// ascend calls fn for every key >= from, with its value, in ascending
// order until fn returns false.
func (ix *keyIndex) ascend(from string, fn func(key string, val []byte) bool) {
	for n, i, _ := ix.seek(from); n != nil; n, i = n.next, 0 {
		for ; i < len(n.ents); i++ {
			if !fn(n.key(i), n.val(i)) {
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
		i = len(n.ents)
	} else {
		n, i, _ = ix.seek(before)
	}
	for n != nil {
		for i--; i >= 0; i-- {
			if !fn(n.key(i)) {
				return
			}
		}
		if n = n.prev; n != nil {
			i = len(n.ents)
		}
	}
}

// bytes returns the memory the subtree under n holds: node structs,
// separators, leaf arenas and entry records.
func (n *node) bytes() int {
	b := int(unsafe.Sizeof(*n)) + len(n.prefix) + cap(n.data) + cap(n.ents)*int(unsafe.Sizeof(ent{})) +
		cap(n.keys)*int(unsafe.Sizeof("")) + cap(n.kids)*int(unsafe.Sizeof(n))
	for _, k := range n.keys {
		b += len(k)
	}
	for _, kid := range n.kids {
		b += kid.bytes()
	}
	return b
}
