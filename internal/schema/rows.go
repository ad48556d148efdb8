package schema

import "collabwf/internal/data"

// Relation storage is a persistent B+tree of tuples ordered by key
// (attribute 0). A node is immutable once it is reachable from an instance:
// a write copies the path from the root to the changed leaf and shares every
// other node with the version it was derived from. An instance derived by one
// insertion or deletion therefore retains O(log n) new memory, any number of
// versions share the rest, and every read walks the keys in order without
// sorting. A relation of at most maxWidth tuples is a single sorted leaf; the
// nil *node is the empty relation.

const (
	// maxWidth bounds the tuples of a leaf and the children of an inner
	// node. Small nodes keep the path a write copies short (a few hundred
	// bytes per level).
	maxWidth = 16
	// minWidth is the width under which a node shrunk by a deletion is
	// merged with a neighbour, when the two fit in one node.
	minWidth = maxWidth / 4
)

type node struct {
	// tuples holds a leaf's tuples, sorted by key.
	tuples []data.Tuple
	// kids holds an inner node's children in key order; seps[i] bounds
	// them: every key under kids[i] is < seps[i] ≤ every key under
	// kids[i+1].
	kids []*node
	seps []data.Value
	// size counts the tuples under the node.
	size int
}

func newLeaf(ts []data.Tuple) *node { return &node{tuples: ts, size: len(ts)} }

func newInner(kids []*node, seps []data.Value) *node {
	n := &node{kids: kids, seps: seps}
	for _, k := range kids {
		n.size += k.size
	}
	return n
}

func (n *node) count() int {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *node) leaf() bool { return n.kids == nil }

func (n *node) width() int {
	if n.leaf() {
		return len(n.tuples)
	}
	return len(n.kids)
}

// search returns the position of key k among sorted tuples and whether a
// tuple with that key is there.
func search(ts []data.Tuple, k data.Value) (int, bool) {
	lo, hi := 0, len(ts)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ts[m][0] < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(ts) && ts[lo][0] == k
}

// child returns the index of the child whose key range holds k.
func child(seps []data.Value, k data.Value) int {
	lo, hi := 0, len(seps)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if seps[m] <= k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// get returns the tuple stored under key k.
func (n *node) get(k data.Value) (data.Tuple, bool) {
	for n != nil {
		if n.leaf() {
			if i, ok := search(n.tuples, k); ok {
				return n.tuples[i], true
			}
			return nil, false
		}
		n = n.kids[child(n.seps, k)]
	}
	return nil, false
}

// with returns the relation with t stored under its key, replacing the
// tuple stored there before, if any.
func (n *node) with(t data.Tuple) *node {
	if n == nil {
		return newLeaf([]data.Tuple{t})
	}
	a, b, sep := n.put(t)
	if b == nil {
		return a
	}
	return newInner([]*node{a, b}, []data.Value{sep})
}

// put returns the copy of n with t stored. A copy that overflows is split
// into a and b, sep being the least key under b.
func (n *node) put(t data.Tuple) (a, b *node, sep data.Value) {
	k := t[0]
	if n.leaf() {
		i, found := search(n.tuples, k)
		if found {
			ts := clone(n.tuples)
			ts[i] = t
			return newLeaf(ts), nil, ""
		}
		ts := insertAt(n.tuples, i, t)
		if len(ts) <= maxWidth {
			return newLeaf(ts), nil, ""
		}
		h := len(ts) / 2
		return newLeaf(clone(ts[:h])), newLeaf(clone(ts[h:])), ts[h][0]
	}
	i := child(n.seps, k)
	old := n.kids[i]
	ca, cb, csep := old.put(t)
	if cb == nil {
		// The separators are unchanged and shared with n.
		kids := clone(n.kids)
		kids[i] = ca
		return &node{kids: kids, seps: n.seps, size: n.size - old.size + ca.size}, nil, ""
	}
	kids := insertAt(n.kids, i+1, cb)
	kids[i] = ca
	seps := insertAt(n.seps, i, csep)
	if len(kids) <= maxWidth {
		return newInner(kids, seps), nil, ""
	}
	h := len(kids) / 2
	return newInner(clone(kids[:h]), clone(seps[:h-1])), newInner(clone(kids[h:]), clone(seps[h:])), seps[h-1]
}

// without returns the relation with key k removed and whether it was
// stored.
func (n *node) without(k data.Value) (*node, bool) {
	if n == nil {
		return nil, false
	}
	m, ok := n.del(k)
	if !ok {
		return n, false
	}
	for m != nil && !m.leaf() && len(m.kids) == 1 {
		m = m.kids[0]
	}
	return m, true
}

// del returns the copy of n without key k, nil when nothing is left.
func (n *node) del(k data.Value) (*node, bool) {
	if n.leaf() {
		i, found := search(n.tuples, k)
		if !found {
			return n, false
		}
		if len(n.tuples) == 1 {
			return nil, true
		}
		return newLeaf(removeAt(n.tuples, i)), true
	}
	i := child(n.seps, k)
	c, ok := n.kids[i].del(k)
	if !ok {
		return n, false
	}
	if c == nil {
		if len(n.kids) == 1 {
			return nil, true
		}
		// Dropping kids[i] drops the separator on its left (on its right
		// for the first child).
		return newInner(removeAt(n.kids, i), removeAt(n.seps, max(i-1, 0))), true
	}
	kids := clone(n.kids)
	kids[i] = c
	if c.width() >= minWidth || len(kids) == 1 {
		return &node{kids: kids, seps: n.seps, size: n.size - 1}, true
	}
	l := min(i, len(kids)-2) // merge kids[l] and kids[l+1]
	if kids[l].width()+kids[l+1].width() > maxWidth {
		return &node{kids: kids, seps: n.seps, size: n.size - 1}, true
	}
	kids[l] = merge(kids[l], kids[l+1], n.seps[l])
	return newInner(removeAt(kids, l+1), removeAt(n.seps, l)), true
}

// merge joins two neighbouring nodes of the same height; sep is the
// separator between them.
func merge(a, b *node, sep data.Value) *node {
	if a.leaf() {
		return newLeaf(concat(a.tuples, b.tuples))
	}
	seps := make([]data.Value, 0, len(a.seps)+1+len(b.seps))
	seps = append(append(append(seps, a.seps...), sep), b.seps...)
	return newInner(concat(a.kids, b.kids), seps)
}

// build returns the relation holding ts, which must be sorted by distinct
// keys. It packs the tuples bottom-up, without the per-insertion copies of
// with.
func build(ts []data.Tuple) *node {
	if len(ts) == 0 {
		return nil
	}
	parts := (len(ts) + maxWidth - 1) / maxWidth
	level := make([]*node, parts)
	mins := make([]data.Value, parts)
	for p := range parts {
		lo, hi := p*len(ts)/parts, (p+1)*len(ts)/parts
		level[p] = newLeaf(clone(ts[lo:hi]))
		mins[p] = ts[lo][0]
	}
	for len(level) > 1 {
		parts = (len(level) + maxWidth - 1) / maxWidth
		next := make([]*node, parts)
		for p := range parts {
			lo, hi := p*len(level)/parts, (p+1)*len(level)/parts
			next[p] = newInner(clone(level[lo:hi]), clone(mins[lo+1:hi]))
			mins[p] = mins[lo]
		}
		level, mins = next, mins[:parts]
	}
	return level[0]
}

// each calls fn on the tuples in key order until fn returns false, and
// reports whether it went through all of them.
func (n *node) each(fn func(data.Tuple) bool) bool {
	if n == nil {
		return true
	}
	if n.leaf() {
		for _, t := range n.tuples {
			if !fn(t) {
				return false
			}
		}
		return true
	}
	for _, c := range n.kids {
		if !c.each(fn) {
			return false
		}
	}
	return true
}

// appendTo appends the tuples in key order to out.
func (n *node) appendTo(out []data.Tuple) []data.Tuple {
	if n == nil {
		return out
	}
	if n.leaf() {
		return append(out, n.tuples...)
	}
	for _, c := range n.kids {
		out = c.appendTo(out)
	}
	return out
}

// list returns the tuples in key order.
func (n *node) list() []data.Tuple {
	return n.appendTo(make([]data.Tuple, 0, n.count()))
}

// leaves appends the leaves in key order to out.
func (n *node) leaves(out []*node) []*node {
	if n == nil {
		return out
	}
	if n.leaf() {
		return append(out, n)
	}
	for _, c := range n.kids {
		out = c.leaves(out)
	}
	return out
}

// equalRows reports whether two relations hold the same tuples. Shared
// subtrees compare in O(1) at the root and leaf by leaf below it.
func equalRows(a, b *node) bool {
	if a == b {
		return true
	}
	if a.count() != b.count() {
		return false
	}
	la, lb := a.leaves(nil), b.leaves(nil)
	i, j, x, y := 0, 0, 0, 0
	for i < len(la) {
		if x == 0 && y == 0 && la[i] == lb[j] {
			i, j = i+1, j+1
			continue
		}
		if !la[i].tuples[x].Equal(lb[j].tuples[y]) {
			return false
		}
		if x++; x == len(la[i].tuples) {
			i, x = i+1, 0
		}
		if y++; y == len(lb[j].tuples) {
			j, y = j+1, 0
		}
	}
	return true
}

func clone[T any](s []T) []T {
	out := make([]T, len(s))
	copy(out, s)
	return out
}

func concat[T any](a, b []T) []T {
	out := make([]T, len(a)+len(b))
	copy(out[copy(out, a):], b)
	return out
}

func insertAt[T any](s []T, i int, v T) []T {
	out := make([]T, len(s)+1)
	copy(out, s[:i])
	out[i] = v
	copy(out[i+1:], s[i:])
	return out
}

func removeAt[T any](s []T, i int) []T {
	out := make([]T, len(s)-1)
	copy(out, s[:i])
	copy(out[i:], s[i+1:])
	return out
}
