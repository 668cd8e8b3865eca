package storage

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/pinumdb/pinum/internal/catalog"
)

func table(rows int64, cols int) *catalog.Table {
	t := &catalog.Table{Name: "t", RowCount: rows}
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := 0; i < cols; i++ {
		t.Columns = append(t.Columns, &catalog.Column{Name: names[i], Type: catalog.Int})
	}
	return t
}

func TestAlign(t *testing.T) {
	cases := map[int]int{0: 0, 1: 8, 7: 8, 8: 8, 9: 16, 23: 24, 24: 24, -3: 0}
	for in, want := range cases {
		if got := Align(in); got != want {
			t.Errorf("Align(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestTablePages(t *testing.T) {
	tb := table(1_000_000, 4)
	pages := TablePages(tb)
	// 4 ints = 32B payload + 24B header + 4B slot = 60B → ~135 rows/page.
	perPage := float64(1_000_000) / float64(pages)
	if perPage < 100 || perPage > 160 {
		t.Errorf("rows per page = %.0f, outside plausible range", perPage)
	}
	// Explicit page count wins.
	tb.Pages = 42
	if TablePages(tb) != 42 {
		t.Error("explicit Pages not honoured")
	}
}

// Property: leaf page estimates are monotone in row count and key width.
func TestLeafPagesMonotone(t *testing.T) {
	f := func(rows1, rows2 uint32, w1, w2 uint8) bool {
		r1, r2 := int64(rows1%10_000_000)+1, int64(rows2%10_000_000)+1
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		c1, c2 := int(w1%4)+1, int(w2%4)+1
		if c1 > c2 {
			c1, c2 = c2, c1
		}
		small := table(r1, c1)
		big := table(r2, c2)
		colsSmall := make([]string, 0, c1)
		for _, c := range small.Columns {
			colsSmall = append(colsSmall, c.Name)
		}
		colsBig := make([]string, 0, c2)
		for _, c := range big.Columns {
			colsBig = append(colsBig, c.Name)
		}
		return LeafPages(small, colsSmall) <= LeafPages(big, colsBig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHypotheticalVsBuilt(t *testing.T) {
	tb := table(35_000_000, 4)
	cols := []string{"a", "b"}
	hypo := HypotheticalIndex("h", tb, cols)
	built := BuiltIndex("b", tb, cols)
	if !hypo.Hypothetical || built.Hypothetical {
		t.Error("Hypothetical flags wrong")
	}
	if hypo.LeafPages != built.LeafPages {
		t.Errorf("leaf pages differ: %d vs %d", hypo.LeafPages, built.LeafPages)
	}
	if hypo.InternalPages != 0 {
		t.Error("what-if estimate must ignore internal pages (§V-A)")
	}
	if built.InternalPages <= 0 {
		t.Error("built index must include internal pages")
	}
	// Internal pages are a small fraction — the paper's ≤1% error source.
	frac := float64(built.InternalPages) / float64(built.LeafPages)
	if frac <= 0 || frac > 0.02 {
		t.Errorf("internal/leaf fraction %.4f outside (0, 2%%]", frac)
	}
	if hypo.Height != built.Height || hypo.Height < 1 {
		t.Errorf("heights: hypo %d built %d", hypo.Height, built.Height)
	}
}

func TestBTreeHeight(t *testing.T) {
	if BTreeHeight(1, 100) != 0 {
		t.Error("single leaf should have height 0")
	}
	if BTreeHeight(100, 100) != 1 {
		t.Error("100 leaves at fanout 100 should have height 1")
	}
	if BTreeHeight(101, 100) != 2 {
		t.Error("101 leaves at fanout 100 should have height 2")
	}
	if InternalPages(1, 100) != 0 {
		t.Error("single leaf needs no internal pages")
	}
	if got := InternalPages(100, 100); got != 1 {
		t.Errorf("InternalPages(100,100) = %d, want 1", got)
	}
}

func TestGigaBytesRoundTrip(t *testing.T) {
	if GigaBytes(BytesForGB(5)) != 5 {
		t.Error("GB round trip failed")
	}
	tb := table(1000, 2)
	ix := HypotheticalIndex("x", tb, []string{"a"})
	if IndexBytes(ix) != ix.LeafPages*PageSize {
		t.Error("IndexBytes wrong")
	}
}

// TestBudgetBytes pins the budget guard: past the int64 limit BytesForGB's
// conversion is undefined (on amd64 it wraps to math.MinInt64), and
// BudgetBytes refuses those budgets with an error naming the limit, and
// non-positive or NaN ones too.
func TestBudgetBytes(t *testing.T) {
	for _, gb := range []float64{5, 0.5, 9.2e9} {
		if got, err := BudgetBytes(gb); err != nil || got != BytesForGB(gb) {
			t.Errorf("BudgetBytes(%g) = %d, %v, want %d", gb, got, err, BytesForGB(gb))
		}
	}
	for _, gb := range []float64{9.3e9, 1e10, 1e300, math.Inf(1)} {
		if got, err := BudgetBytes(gb); err == nil || !strings.Contains(err.Error(), "int64 byte limit") {
			t.Errorf("BudgetBytes(%g) = %d, %v, want the int64 limit named", gb, got, err)
		}
	}
	for _, gb := range []float64{0, -1, math.NaN(), math.Inf(-1)} {
		if got, err := BudgetBytes(gb); err == nil || !strings.Contains(err.Error(), "must be positive") {
			t.Errorf("BudgetBytes(%g) = %d, %v, want a positivity error", gb, got, err)
		}
	}
}
