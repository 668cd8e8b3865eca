package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/pinumdb/pinum/internal/heap"
)

func entry(k int64, page int32) Entry {
	return Entry{Key: []int64{k}, TID: heap.TID{Page: page}}
}

func TestCompareKeys(t *testing.T) {
	cases := []struct {
		a, b []int64
		want int
	}{
		{[]int64{1}, []int64{2}, -1},
		{[]int64{2}, []int64{1}, 1},
		{[]int64{1, 2}, []int64{1, 2}, 0},
		{[]int64{1}, []int64{1, 0}, -1}, // prefix sorts first
		{[]int64{1, 1}, []int64{1}, 1},
	}
	for _, c := range cases {
		if got := CompareKeys(c.a, c.b); got != c.want {
			t.Errorf("CompareKeys(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestBulkAndScan(t *testing.T) {
	var entries []Entry
	for i := 0; i < 10000; i++ {
		entries = append(entries, entry(int64(i%997), int32(i)))
	}
	tr := Bulk("t", 64, entries)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.count != len(entries) {
		t.Fatalf("Count = %d", tr.count)
	}
	if tr.height < 2 {
		t.Errorf("height = %d, expected a multi-level tree", tr.height)
	}
	if tr.inner == 0 {
		t.Error("no internal nodes recorded")
	}
	// A full scan returns everything in key order.
	var prev []int64
	n := 0
	tr.Scan(nil, nil, func(e Entry) bool {
		if prev != nil && CompareKeys(prev, e.Key) > 0 {
			t.Fatal("scan out of order")
		}
		prev = e.Key
		n++
		return true
	})
	if n != len(entries) {
		t.Fatalf("scanned %d of %d", n, len(entries))
	}
}

func TestRangeScanBounds(t *testing.T) {
	var entries []Entry
	for i := 0; i < 1000; i++ {
		entries = append(entries, entry(int64(i), int32(i)))
	}
	tr := Bulk("t", 32, entries)
	var got []int64
	tr.Scan([]int64{100}, []int64{199}, func(e Entry) bool {
		got = append(got, e.Key[0])
		return true
	})
	if len(got) != 100 || got[0] != 100 || got[len(got)-1] != 199 {
		t.Fatalf("range scan returned %d keys [%d..%d]", len(got), got[0], got[len(got)-1])
	}
}

func TestProbeDuplicates(t *testing.T) {
	var entries []Entry
	for i := 0; i < 300; i++ {
		entries = append(entries, entry(int64(i%3), int32(i)))
	}
	tr := Bulk("t", 16, entries)
	count := 0
	tr.Probe([]int64{1}, func(e Entry) bool {
		if e.Key[0] != 1 {
			t.Fatalf("probe returned key %v", e.Key)
		}
		count++
		return true
	})
	if count != 100 {
		t.Fatalf("probe found %d duplicates, want 100", count)
	}
}

func TestInsertMaintainsInvariants(t *testing.T) {
	tr := New("t", 8)
	rng := rand.New(rand.NewSource(5))
	keys := make([]int64, 2000)
	for i := range keys {
		keys[i] = rng.Int63n(500)
		tr.Insert(entry(keys[i], int32(i)))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.count != len(keys) {
		t.Fatalf("Count = %d", tr.count)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	i := 0
	tr.Scan(nil, nil, func(e Entry) bool {
		if e.Key[0] != keys[i] {
			t.Fatalf("position %d: got %d want %d", i, e.Key[0], keys[i])
		}
		i++
		return true
	})
}

// Property: a tree built by random inserts returns exactly the multiset of
// inserted keys, in order, and satisfies the structural invariants.
func TestInsertProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16, fanoutRaw uint8) bool {
		n := int(nRaw%800) + 1
		fanout := int(fanoutRaw%60) + 4
		rng := rand.New(rand.NewSource(seed))
		tr := New("p", fanout)
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = rng.Int63n(200)
			tr.Insert(Entry{Key: []int64{keys[i], rng.Int63n(10)}, TID: heap.TID{Page: int32(i)}})
		}
		if err := tr.Validate(); err != nil {
			return false
		}
		count := 0
		var prev []int64
		ok := true
		tr.Scan(nil, nil, func(e Entry) bool {
			if prev != nil && CompareKeys(prev, e.Key) > 0 {
				ok = false
				return false
			}
			prev = e.Key
			count++
			return true
		})
		return ok && count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: bulk loading and incremental insertion of the same entries
// yield identical scan sequences.
func TestBulkEqualsInsert(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%500) + 1
		rng := rand.New(rand.NewSource(seed))
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{Key: []int64{rng.Int63n(100), rng.Int63n(100)}, TID: heap.TID{Page: int32(i)}}
		}
		bulk := Bulk("b", 16, entries)
		inc := New("i", 16)
		for _, e := range entries {
			inc.Insert(e)
		}
		var a, b []Entry
		bulk.Scan(nil, nil, func(e Entry) bool { a = append(a, e); return true })
		inc.Scan(nil, nil, func(e Entry) bool { b = append(b, e); return true })
		if len(a) != len(b) {
			return false
		}
		// Equal-key entries may appear in either TID order (duplicates
		// are routed by key only), so compare as canonically sorted
		// multisets.
		canon := func(es []Entry) {
			sort.Slice(es, func(i, j int) bool { return compareEntries(es[i], es[j]) < 0 })
		}
		canon(a)
		canon(b)
		for i := range a {
			if CompareKeys(a[i].Key, b[i].Key) != 0 || a[i].TID != b[i].TID {
				return false
			}
		}
		return inc.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New("e", 8)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	n := 0
	tr.Scan(nil, nil, func(Entry) bool { n++; return true })
	if n != 0 {
		t.Error("empty tree scanned entries")
	}
	if tr.height != 0 || tr.leaves != 1 {
		t.Errorf("empty tree shape: height %d leaves %d", tr.height, tr.leaves)
	}
}

func TestLeafInternalAccounting(t *testing.T) {
	var entries []Entry
	for i := 0; i < 100000; i++ {
		entries = append(entries, entry(int64(i), int32(i)))
	}
	tr := Bulk("t", DefaultFanout, entries)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Internal nodes must be a small fraction of leaves (≈1/fanout).
	frac := float64(tr.inner) / float64(tr.leaves)
	if frac <= 0 || frac > 0.02 {
		t.Errorf("internal/leaf fraction = %.4f", frac)
	}
}
