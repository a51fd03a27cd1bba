// Package btree implements the in-memory B+-tree backing the key-value
// store service (paper §V-A/§VI-B): 8-byte integer keys index byte
// values, entries live in linked leaves, and internal nodes hold
// separators only.
//
// Concurrency contract (matching the paper's execution model): the
// tree itself is unsynchronized. Get and Update touch only the leaf
// slot of their key, so invocations on different keys may run
// concurrently; Insert and Delete can restructure the tree and must be
// exclusive. P-SMR enforces exactly this through the key-value store's
// C-Dep (inserts/deletes depend on everything; reads/updates conflict
// per key).
package btree

import (
	"fmt"
	"sort"
)

// DefaultOrder is the default maximum number of entries per node.
const DefaultOrder = 64

// Tree is a B+-tree from uint64 keys to byte-slice values.
type Tree struct {
	root  *node
	size  int
	order int // max entries per node
}

type node struct {
	// keys holds entry keys in leaves, separator keys in internal
	// nodes (children[i] covers keys < keys[i]; children[len(keys)]
	// covers the rest).
	keys     []uint64
	values   [][]byte // leaves only, parallel to keys
	children []*node  // internal only, len(keys)+1
	next     *node    // leaf chain
}

func (n *node) leaf() bool { return n.children == nil }

// New creates an empty tree with the given order (maximum entries per
// node); order < 4 is raised to 4.
func New(order int) *Tree {
	if order < 4 {
		order = 4
	}
	return &Tree{
		root:  &node{},
		order: order,
	}
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// findLeaf descends to the leaf responsible for key.
func (t *Tree) findLeaf(key uint64) *node {
	n := t.root
	for !n.leaf() {
		n = n.children[childIndex(n.keys, key)]
	}
	return n
}

// childIndex returns the child slot covering key: the first separator
// strictly greater than key.
func childIndex(keys []uint64, key uint64) int {
	return sort.Search(len(keys), func(i int) bool { return key < keys[i] })
}

// entryIndex returns the position of key in a leaf and whether it is
// present.
func entryIndex(keys []uint64, key uint64) (int, bool) {
	i := sort.Search(len(keys), func(i int) bool { return keys[i] >= key })
	return i, i < len(keys) && keys[i] == key
}

// Get returns the value stored under key.
func (t *Tree) Get(key uint64) ([]byte, bool) {
	leaf := t.findLeaf(key)
	if i, ok := entryIndex(leaf.keys, key); ok {
		return leaf.values[i], true
	}
	return nil, false
}

// Update replaces the value of an existing key; it reports false (and
// changes nothing) when the key is absent. Update never restructures
// the tree.
func (t *Tree) Update(key uint64, value []byte) bool {
	leaf := t.findLeaf(key)
	if i, ok := entryIndex(leaf.keys, key); ok {
		leaf.values[i] = value
		return true
	}
	return false
}

// Insert stores value under key, reporting whether the key is new
// (false means an existing value was overwritten).
func (t *Tree) Insert(key uint64, value []byte) bool {
	added, sep, right := t.insert(t.root, key, value)
	if right != nil {
		t.root = &node{
			keys:     []uint64{sep},
			children: []*node{t.root, right},
		}
	}
	if added {
		t.size++
	}
	return added
}

func (t *Tree) insert(n *node, key uint64, value []byte) (added bool, sep uint64, right *node) {
	if n.leaf() {
		i, ok := entryIndex(n.keys, key)
		if ok {
			n.values[i] = value
			return false, 0, nil
		}
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.values = append(n.values, nil)
		copy(n.values[i+1:], n.values[i:])
		n.values[i] = value
		if len(n.keys) > t.order {
			sep, right = t.splitLeaf(n)
			return true, sep, right
		}
		return true, 0, nil
	}
	idx := childIndex(n.keys, key)
	added, csep, cright := t.insert(n.children[idx], key, value)
	if cright != nil {
		n.keys = append(n.keys, 0)
		copy(n.keys[idx+1:], n.keys[idx:])
		n.keys[idx] = csep
		n.children = append(n.children, nil)
		copy(n.children[idx+2:], n.children[idx+1:])
		n.children[idx+1] = cright
		if len(n.keys) > t.order {
			sep, right = t.splitInternal(n)
			return added, sep, right
		}
	}
	return added, 0, nil
}

func (t *Tree) splitLeaf(n *node) (sep uint64, right *node) {
	mid := len(n.keys) / 2
	right = &node{
		keys:   append([]uint64(nil), n.keys[mid:]...),
		values: append([][]byte(nil), n.values[mid:]...),
		next:   n.next,
	}
	// Clear moved slots so the backing arrays release the values.
	for i := mid; i < len(n.values); i++ {
		n.values[i] = nil
	}
	n.keys = n.keys[:mid]
	n.values = n.values[:mid]
	n.next = right
	return right.keys[0], right
}

func (t *Tree) splitInternal(n *node) (sep uint64, right *node) {
	mid := len(n.keys) / 2
	sep = n.keys[mid]
	right = &node{
		keys:     append([]uint64(nil), n.keys[mid+1:]...),
		children: append([]*node(nil), n.children[mid+1:]...),
	}
	for i := mid + 1; i < len(n.children); i++ {
		n.children[i] = nil
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return sep, right
}

// Delete removes key, reporting whether it was present.
func (t *Tree) Delete(key uint64) bool {
	removed := t.remove(t.root, key)
	if removed {
		t.size--
	}
	// Collapse a root that lost all separators.
	if !t.root.leaf() && len(t.root.keys) == 0 {
		t.root = t.root.children[0]
	}
	return removed
}

func (t *Tree) minEntries() int { return t.order / 2 }

func (t *Tree) remove(n *node, key uint64) bool {
	if n.leaf() {
		i, ok := entryIndex(n.keys, key)
		if !ok {
			return false
		}
		copy(n.keys[i:], n.keys[i+1:])
		n.keys = n.keys[:len(n.keys)-1]
		copy(n.values[i:], n.values[i+1:])
		n.values[len(n.values)-1] = nil
		n.values = n.values[:len(n.values)-1]
		return true
	}
	idx := childIndex(n.keys, key)
	removed := t.remove(n.children[idx], key)
	if removed && len(n.children[idx].keys) < t.minEntries() {
		t.rebalance(n, idx)
	}
	return removed
}

// rebalance fixes the underfull child at idx by borrowing from a
// sibling or merging with one.
func (t *Tree) rebalance(parent *node, idx int) {
	child := parent.children[idx]

	// Borrow from the left sibling.
	if idx > 0 {
		left := parent.children[idx-1]
		if len(left.keys) > t.minEntries() {
			if child.leaf() {
				last := len(left.keys) - 1
				child.keys = prependKey(child.keys, left.keys[last])
				child.values = prependValue(child.values, left.values[last])
				left.values[last] = nil
				left.keys = left.keys[:last]
				left.values = left.values[:last]
				parent.keys[idx-1] = child.keys[0]
			} else {
				// Rotate through the parent separator.
				child.keys = prependKey(child.keys, parent.keys[idx-1])
				child.children = prependChild(child.children, left.children[len(left.children)-1])
				parent.keys[idx-1] = left.keys[len(left.keys)-1]
				left.children[len(left.children)-1] = nil
				left.keys = left.keys[:len(left.keys)-1]
				left.children = left.children[:len(left.children)-1]
			}
			return
		}
	}
	// Borrow from the right sibling.
	if idx < len(parent.children)-1 {
		right := parent.children[idx+1]
		if len(right.keys) > t.minEntries() {
			if child.leaf() {
				child.keys = append(child.keys, right.keys[0])
				child.values = append(child.values, right.values[0])
				copy(right.keys, right.keys[1:])
				right.keys = right.keys[:len(right.keys)-1]
				copy(right.values, right.values[1:])
				right.values[len(right.values)-1] = nil
				right.values = right.values[:len(right.values)-1]
				parent.keys[idx] = right.keys[0]
			} else {
				child.keys = append(child.keys, parent.keys[idx])
				child.children = append(child.children, right.children[0])
				parent.keys[idx] = right.keys[0]
				copy(right.keys, right.keys[1:])
				right.keys = right.keys[:len(right.keys)-1]
				copy(right.children, right.children[1:])
				right.children[len(right.children)-1] = nil
				right.children = right.children[:len(right.children)-1]
			}
			return
		}
	}
	// Merge with a sibling (into the left node of the pair).
	if idx > 0 {
		t.merge(parent, idx-1)
	} else {
		t.merge(parent, idx)
	}
}

// merge folds parent.children[i+1] into parent.children[i] and removes
// separator i.
func (t *Tree) merge(parent *node, i int) {
	left, right := parent.children[i], parent.children[i+1]
	if left.leaf() {
		left.keys = append(left.keys, right.keys...)
		left.values = append(left.values, right.values...)
		left.next = right.next
	} else {
		left.keys = append(left.keys, parent.keys[i])
		left.keys = append(left.keys, right.keys...)
		left.children = append(left.children, right.children...)
	}
	copy(parent.keys[i:], parent.keys[i+1:])
	parent.keys = parent.keys[:len(parent.keys)-1]
	copy(parent.children[i+1:], parent.children[i+2:])
	parent.children[len(parent.children)-1] = nil
	parent.children = parent.children[:len(parent.children)-1]
}

func prependKey(s []uint64, k uint64) []uint64 {
	s = append(s, 0)
	copy(s[1:], s)
	s[0] = k
	return s
}

func prependValue(s [][]byte, v []byte) [][]byte {
	s = append(s, nil)
	copy(s[1:], s)
	s[0] = v
	return s
}

func prependChild(s []*node, c *node) []*node {
	s = append(s, nil)
	copy(s[1:], s)
	s[0] = c
	return s
}

// Ascend calls fn for every entry in ascending key order until fn
// returns false.
func (t *Tree) Ascend(fn func(key uint64, value []byte) bool) {
	n := t.root
	for !n.leaf() {
		n = n.children[0]
	}
	for n != nil {
		for i, k := range n.keys {
			if !fn(k, n.values[i]) {
				return
			}
		}
		n = n.next
	}
}

// AscendRange calls fn for entries with from <= key < to in ascending
// order until fn returns false.
func (t *Tree) AscendRange(from, to uint64, fn func(key uint64, value []byte) bool) {
	n := t.findLeaf(from)
	for n != nil {
		for i, k := range n.keys {
			if k < from {
				continue
			}
			if k >= to {
				return
			}
			if !fn(k, n.values[i]) {
				return
			}
		}
		n = n.next
	}
}

// CheckInvariants validates the structural invariants of the tree; it
// exists for tests and returns a description of the first violation.
func (t *Tree) CheckInvariants() error {
	depth := -1
	var prevKey uint64
	first := true
	var walk func(n *node, level int, min, max uint64, hasMin, hasMax bool) error
	walk = func(n *node, level int, min, max uint64, hasMin, hasMax bool) error {
		if len(n.keys) > t.order {
			return fmt.Errorf("node at level %d overfull: %d > %d", level, len(n.keys), t.order)
		}
		if n != t.root && len(n.keys) < t.minEntries() {
			return fmt.Errorf("node at level %d underfull: %d < %d", level, len(n.keys), t.minEntries())
		}
		for i := 1; i < len(n.keys); i++ {
			if n.keys[i-1] >= n.keys[i] {
				return fmt.Errorf("keys out of order at level %d: %d >= %d", level, n.keys[i-1], n.keys[i])
			}
		}
		for _, k := range n.keys {
			if hasMin && k < min {
				return fmt.Errorf("key %d below subtree minimum %d", k, min)
			}
			if hasMax && k >= max {
				return fmt.Errorf("key %d at or above subtree maximum %d", k, max)
			}
		}
		if n.leaf() {
			if len(n.values) != len(n.keys) {
				return fmt.Errorf("leaf keys/values mismatch: %d vs %d", len(n.keys), len(n.values))
			}
			if depth == -1 {
				depth = level
			} else if depth != level {
				return fmt.Errorf("leaves at different depths: %d vs %d", depth, level)
			}
			for _, k := range n.keys {
				if !first && k <= prevKey {
					return fmt.Errorf("leaf chain out of order: %d <= %d", k, prevKey)
				}
				prevKey, first = k, false
			}
			return nil
		}
		if len(n.children) != len(n.keys)+1 {
			return fmt.Errorf("internal children/keys mismatch: %d vs %d", len(n.children), len(n.keys))
		}
		for i, c := range n.children {
			cmin, cmax := min, max
			cHasMin, cHasMax := hasMin, hasMax
			if i > 0 {
				cmin, cHasMin = n.keys[i-1], true
			}
			if i < len(n.keys) {
				cmax, cHasMax = n.keys[i], true
			}
			if err := walk(c, level+1, cmin, cmax, cHasMin, cHasMax); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0, 0, 0, false, false); err != nil {
		return err
	}
	count := 0
	t.Ascend(func(uint64, []byte) bool { count++; return true })
	if count != t.size {
		return fmt.Errorf("size %d but %d entries reachable", t.size, count)
	}
	return nil
}
