package heap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInsertGetRoundTrip(t *testing.T) {
	f := NewFile("t", 3)
	tids := make([]TID, 0, 1000)
	for i := 0; i < 1000; i++ {
		tid, err := f.Insert([]int64{int64(i), int64(i * 2), -int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
	}
	if f.Count() != 1000 {
		t.Fatalf("Count = %d", f.Count())
	}
	for i, tid := range tids {
		row, err := f.Get(tid, nil)
		if err != nil {
			t.Fatal(err)
		}
		if row[0] != int64(i) || row[1] != int64(i*2) || row[2] != -int64(i) {
			t.Fatalf("row %d = %v", i, row)
		}
	}
}

func TestInsertWidthMismatch(t *testing.T) {
	f := NewFile("t", 2)
	if _, err := f.Insert([]int64{1}); err == nil {
		t.Error("narrow tuple accepted")
	}
	if _, err := f.Insert([]int64{1, 2, 3}); err == nil {
		t.Error("wide tuple accepted")
	}
}

func TestGetBadTID(t *testing.T) {
	f := NewFile("t", 1)
	if _, err := f.Insert([]int64{1}); err != nil {
		t.Fatal(err)
	}
	for _, tid := range []TID{{Page: 5}, {Page: -1}, {Page: 0, Slot: 9}, {Page: 0, Slot: -1}} {
		if _, err := f.Get(tid, nil); err == nil {
			t.Errorf("Get(%v) accepted", tid)
		}
	}
}

func TestScanVisitsAllInOrder(t *testing.T) {
	f := NewFile("t", 1)
	const n = 5000
	for i := 0; i < n; i++ {
		if _, err := f.Insert([]int64{int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(f.pages) < 2 {
		t.Fatalf("expected multiple pages, got %d", len(f.pages))
	}
	var seen int64
	var prev TID
	first := true
	f.Scan(func(tid TID, row []int64) bool {
		if row[0] != seen {
			t.Fatalf("row %d out of order: %v", seen, row)
		}
		if !first && !prev.Less(tid) {
			t.Fatalf("TIDs out of heap order: %v then %v", prev, tid)
		}
		prev, first = tid, false
		seen++
		return true
	})
	if seen != n {
		t.Fatalf("scanned %d rows, want %d", seen, n)
	}
}

func TestScanEarlyStop(t *testing.T) {
	f := NewFile("t", 1)
	for i := 0; i < 100; i++ {
		if _, err := f.Insert([]int64{int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	f.Scan(func(TID, []int64) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop scanned %d", count)
	}
}

// Property: for random widths and row counts, every inserted tuple is
// retrievable by its TID with exactly the inserted values.
func TestInsertGetProperty(t *testing.T) {
	f := func(widthSeed uint8, n uint16, seed int64) bool {
		width := int(widthSeed%8) + 1
		rows := int(n % 500)
		rng := rand.New(rand.NewSource(seed))
		hf := NewFile("p", width)
		want := make([][]int64, 0, rows)
		tids := make([]TID, 0, rows)
		for i := 0; i < rows; i++ {
			tuple := make([]int64, width)
			for j := range tuple {
				tuple[j] = rng.Int63()
			}
			tid, err := hf.Insert(tuple)
			if err != nil {
				return false
			}
			want = append(want, tuple)
			tids = append(tids, tid)
		}
		for i, tid := range tids {
			got, err := hf.Get(tid, nil)
			if err != nil {
				return false
			}
			for j := range got {
				if got[j] != want[i][j] {
					return false
				}
			}
		}
		return hf.Count() == rows
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBytesTracksPages(t *testing.T) {
	f := NewFile("t", 4)
	if f.Bytes() != 0 {
		t.Error("empty file has bytes")
	}
	for i := 0; i < 1000; i++ {
		if _, err := f.Insert([]int64{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	if f.Bytes() != int64(len(f.pages))*PageSize {
		t.Error("Bytes != Pages*PageSize")
	}
}
