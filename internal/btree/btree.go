// Package btree implements an in-memory B+-tree over composite integer
// keys, the index structure behind the executor's index scans and the
// "actually built index" side of the what-if accuracy experiment: a built
// tree reports its real leaf and internal node counts, which the what-if
// estimate (leaf pages only, paper §V-A) deliberately under-approximates.
package btree

import (
	"fmt"
	"sort"

	"github.com/pinumdb/pinum/internal/heap"
)

// Entry is one index entry: a composite key plus the heap TID it points at.
type Entry struct {
	Key []int64
	TID heap.TID
}

// CompareKeys orders composite keys lexicographically; shorter keys sort
// before longer keys with an equal prefix (so a prefix probe can use a
// truncated key as a lower bound).
func CompareKeys(a, b []int64) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// compareEntries orders entries by key, then TID, making every entry
// distinct (as PostgreSQL's B-trees effectively do).
func compareEntries(a, b Entry) int {
	if c := CompareKeys(a.Key, b.Key); c != 0 {
		return c
	}
	switch {
	case a.TID.Less(b.TID):
		return -1
	case b.TID.Less(a.TID):
		return 1
	}
	return 0
}

type node struct {
	leaf     bool
	entries  []Entry   // leaf only
	keys     [][]int64 // internal: separator keys, len = len(children)-1
	children []*node
	next     *node // leaf sibling for range scans
}

// Tree is a B+-tree with a configurable fanout.
type Tree struct {
	Name   string
	Fanout int
	root   *node
	height int
	leaves int
	inner  int
	count  int
}

// DefaultFanout approximates entries-per-8KB-page for small integer keys.
const DefaultFanout = 256

// New returns an empty tree.
func New(name string, fanout int) *Tree {
	if fanout < 4 {
		fanout = 4
	}
	return &Tree{Name: name, Fanout: fanout, root: &node{leaf: true}, height: 0, leaves: 1}
}

// Bulk builds a tree from entries (copied and sorted), the way a real index
// build sorts then packs pages bottom-up.
func Bulk(name string, fanout int, entries []Entry) *Tree {
	t := New(name, fanout)
	if len(entries) == 0 {
		return t
	}
	sorted := append([]Entry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return compareEntries(sorted[i], sorted[j]) < 0 })

	// Pack leaves at ~90 % fill, like a B-tree build's fill factor.
	per := t.Fanout * 9 / 10
	if per < 2 {
		per = 2
	}
	var leaves []*node
	for off := 0; off < len(sorted); off += per {
		end := off + per
		if end > len(sorted) {
			end = len(sorted)
		}
		leaves = append(leaves, &node{leaf: true, entries: sorted[off:end:end]})
	}
	for i := 0; i+1 < len(leaves); i++ {
		leaves[i].next = leaves[i+1]
	}
	t.leaves = len(leaves)
	t.count = len(sorted)

	// Build internal levels bottom-up.
	level := leaves
	for len(level) > 1 {
		var parents []*node
		for off := 0; off < len(level); off += t.Fanout {
			end := off + t.Fanout
			if end > len(level) {
				end = len(level)
			}
			p := &node{children: level[off:end:end]}
			for i := off + 1; i < end; i++ {
				p.keys = append(p.keys, firstKey(level[i]))
			}
			parents = append(parents, p)
			t.inner++
		}
		level = parents
		t.height++
	}
	t.root = level[0]
	return t
}

func firstKey(n *node) []int64 {
	for !n.leaf {
		n = n.children[0]
	}
	return n.entries[0].Key
}

// Insert adds an entry, splitting nodes as needed. Shipped code builds
// trees with Bulk only; Insert is the incremental oracle
// TestBulkEqualsInsert holds Bulk to.
func (t *Tree) Insert(e Entry) {
	if promoted, right := t.insert(t.root, e); promoted != nil {
		newRoot := &node{
			keys:     [][]int64{promoted},
			children: []*node{t.root, right},
		}
		t.root = newRoot
		t.inner++
		t.height++
	}
	t.count++
}

// insert returns a (separator, right sibling) pair when the child split.
func (t *Tree) insert(n *node, e Entry) ([]int64, *node) {
	if n.leaf {
		i := sort.Search(len(n.entries), func(i int) bool {
			return compareEntries(n.entries[i], e) >= 0
		})
		n.entries = append(n.entries, Entry{})
		copy(n.entries[i+1:], n.entries[i:])
		n.entries[i] = e
		if len(n.entries) <= t.Fanout {
			return nil, nil
		}
		mid := len(n.entries) / 2
		right := &node{leaf: true, entries: append([]Entry(nil), n.entries[mid:]...)}
		n.entries = n.entries[:mid:mid]
		right.next = n.next
		n.next = right
		t.leaves++
		return right.entries[0].Key, right
	}
	i := sort.Search(len(n.keys), func(i int) bool {
		return CompareKeys(n.keys[i], e.Key) >= 0
	})
	promoted, right := t.insert(n.children[i], e)
	if promoted == nil {
		return nil, nil
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = promoted
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
	if len(n.children) <= t.Fanout {
		return nil, nil
	}
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	rightNode := &node{
		keys:     append([][]int64(nil), n.keys[mid+1:]...),
		children: append([]*node(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	t.inner++
	return sep, rightNode
}

// findLeaf descends to the first leaf that may contain key, going left on
// separator equality so scans over duplicate keys start at the first
// occurrence.
func (t *Tree) findLeaf(key []int64) *node {
	n := t.root
	for !n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool {
			return CompareKeys(n.keys[i], key) >= 0
		})
		n = n.children[i]
	}
	return n
}

// Scan visits all entries with lo ≤ key ≤ hi (prefix comparison: a shorter
// bound matches any extension) in key order. fn returning false stops the
// scan. Nil bounds mean unbounded.
func (t *Tree) Scan(lo, hi []int64, fn func(Entry) bool) {
	var n *node
	if lo == nil {
		n = t.leftmost()
	} else {
		n = t.findLeaf(lo)
	}
	for n != nil {
		for _, e := range n.entries {
			if lo != nil && CompareKeys(e.Key, lo) < 0 {
				continue
			}
			if hi != nil && prefixCompare(e.Key, hi) > 0 {
				return
			}
			if !fn(e) {
				return
			}
		}
		n = n.next
	}
}

// prefixCompare compares key against an upper bound, treating the bound as
// a prefix: only the first len(bound) components participate.
func prefixCompare(key, bound []int64) int {
	n := len(bound)
	if len(key) < n {
		n = len(key)
	}
	for i := 0; i < n; i++ {
		switch {
		case key[i] < bound[i]:
			return -1
		case key[i] > bound[i]:
			return 1
		}
	}
	return 0
}

// Probe visits all entries whose key starts with the given prefix.
func (t *Tree) Probe(prefix []int64, fn func(Entry) bool) {
	t.Scan(prefix, prefix, fn)
}

func (t *Tree) leftmost() *node {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	return n
}

// Validate checks the B+-tree invariants: sorted leaves, correct sibling
// chaining, separator consistency, and entry count. It is the invariant
// btree_test.go checks after every build (TestInsertProperty,
// TestBulkEqualsInsert and the others), as does package data's
// TestBuildIndexMatchesHeap; shipped code never calls it.
func (t *Tree) Validate() error {
	// Walk the leaf chain: keys must be globally non-decreasing and the
	// total must match.
	n := t.leftmost()
	var prev []int64
	seen := 0
	for n != nil {
		for i := range n.entries {
			e := &n.entries[i]
			// Keys must be globally non-decreasing; among duplicates the
			// TID order is not maintained across separator-routed
			// inserts, as in most B-tree implementations.
			if prev != nil && CompareKeys(prev, e.Key) > 0 {
				return fmt.Errorf("btree %s: leaf entries out of order", t.Name)
			}
			prev = e.Key
			seen++
		}
		n = n.next
	}
	if seen != t.count {
		return fmt.Errorf("btree %s: leaf chain has %d entries, count says %d", t.Name, seen, t.count)
	}
	return t.validateNode(t.root, nil, nil)
}

func (t *Tree) validateNode(n *node, lo, hi []int64) error {
	if n.leaf {
		for i := range n.entries {
			k := n.entries[i].Key
			if lo != nil && CompareKeys(k, lo) < 0 {
				return fmt.Errorf("btree %s: leaf key below separator", t.Name)
			}
			if hi != nil && CompareKeys(k, hi) >= 0 {
				// Separators are first-keys of right subtrees; equal keys
				// may legitimately span nodes when TIDs differ, so only
				// flag strictly greater violations.
				if CompareKeys(k, hi) > 0 {
					return fmt.Errorf("btree %s: leaf key above separator", t.Name)
				}
			}
		}
		return nil
	}
	if len(n.children) != len(n.keys)+1 {
		return fmt.Errorf("btree %s: internal node with %d children, %d keys", t.Name, len(n.children), len(n.keys))
	}
	for i, child := range n.children {
		var clo, chi []int64
		if i > 0 {
			clo = n.keys[i-1]
		} else {
			clo = lo
		}
		if i < len(n.keys) {
			chi = n.keys[i]
		} else {
			chi = hi
		}
		if err := t.validateNode(child, clo, chi); err != nil {
			return err
		}
	}
	return nil
}
