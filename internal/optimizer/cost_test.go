package optimizer

import (
	"testing"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/storage"
)

func costerTable() *catalog.Table {
	t := &catalog.Table{Name: "t", RowCount: 1_000_000}
	for _, n := range []string{"id", "a", "b"} {
		t.Columns = append(t.Columns, &catalog.Column{Name: n, Type: catalog.Int, NDV: 1000, Min: 1, Max: 1000})
	}
	return t
}

func TestSeqScanCostScalesWithSize(t *testing.T) {
	c := Coster{P: DefaultCostParams()}
	small := c.SeqScanCost(100, 10_000, 1)
	big := c.SeqScanCost(1000, 100_000, 1)
	if big <= small {
		t.Errorf("bigger table not costlier: %f vs %f", big, small)
	}
	withFilters := c.SeqScanCost(100, 10_000, 3)
	if withFilters <= small {
		t.Error("extra filters did not add CPU cost")
	}
}

// indexScanCost prices an index scan on table tb's own heap.
func indexScanCost(c Coster, tb *catalog.Table, ix *catalog.Index, sel float64, indexOnly bool, nFilters int) float64 {
	pages, perPage := heapShape(tb)
	return c.IndexScanCostOn(tb.RowCount, pages, perPage, ix, sel, indexOnly, nFilters)
}

func TestIndexScanCostSelectivityMonotone(t *testing.T) {
	c := Coster{P: DefaultCostParams()}
	tb := costerTable()
	ix := storage.HypotheticalIndex("ix", tb, []string{"a"})
	prev := -1.0
	for _, sel := range []float64{0.001, 0.01, 0.1, 0.5, 1.0} {
		cost := indexScanCost(c, tb, ix, sel, false, 0)
		if cost <= prev {
			t.Errorf("cost not increasing at sel=%.3f: %f after %f", sel, cost, prev)
		}
		prev = cost
	}
	// Out-of-range selectivities clamp rather than explode.
	if indexScanCost(c, tb, ix, -1, false, 0) > indexScanCost(c, tb, ix, 0.01, false, 0) {
		t.Error("negative selectivity not clamped")
	}
	if indexScanCost(c, tb, ix, 2, false, 0) != indexScanCost(c, tb, ix, 1, false, 0) {
		t.Error("selectivity above 1 not clamped")
	}
}

func TestIndexOnlyCheaperAtEqualSelectivity(t *testing.T) {
	c := Coster{P: DefaultCostParams()}
	tb := costerTable()
	ix := storage.HypotheticalIndex("ix", tb, []string{"a", "id", "b"})
	ioCost := indexScanCost(c, tb, ix, 0.05, true, 0)
	heapCost := indexScanCost(c, tb, ix, 0.05, false, 0)
	if ioCost >= heapCost {
		t.Errorf("index-only (%f) not cheaper than heap-fetching (%f)", ioCost, heapCost)
	}
}

func TestHighSelectivityFavorsSeqScan(t *testing.T) {
	// At 50% selectivity a heap-fetching index scan must lose to the
	// sequential scan — the planner behaviour behind E5's redundancy.
	c := Coster{P: DefaultCostParams()}
	tb := costerTable()
	ix := storage.HypotheticalIndex("thin", tb, []string{"a"})
	seq := c.SeqScanCost(storage.TablePages(tb), tb.RowCount, 1)
	idx := indexScanCost(c, tb, ix, 0.5, false, 1)
	if idx <= seq {
		t.Errorf("unselective index scan (%f) beat seq scan (%f)", idx, seq)
	}
}

func TestSortCostSuperlinear(t *testing.T) {
	c := Coster{P: DefaultCostParams()}
	if c.SortCost(1) >= c.SortCost(100) {
		t.Error("sort cost not increasing")
	}
	// n log n: doubling rows more than doubles cost.
	if 2*c.SortCost(10_000) >= c.SortCost(20_000)*1.001 {
		// cost(2n) = 2n·log(2n) > 2·(n·log n); allow for float fuzz.
		t.Error("sort cost not superlinear")
	}
}

func TestLookupCostComponents(t *testing.T) {
	c := Coster{P: DefaultCostParams()}
	tb := costerTable()
	ix := storage.HypotheticalIndex("ix", tb, []string{"a"})
	one := c.LookupCost(tb, ix, 1, false)
	many := c.LookupCost(tb, ix, 100, false)
	if many <= one {
		t.Error("more matches per probe not costlier")
	}
	covered := c.LookupCost(tb, ix, 100, true)
	if covered >= many {
		t.Error("index-only lookup not cheaper")
	}
}

func TestJoinCostsPositiveAndOrdered(t *testing.T) {
	c := Coster{P: DefaultCostParams()}
	hj := c.HashJoinCost(1000, 1000, 500)
	mj := c.MergeJoinCost(1000, 1000, 500)
	nl := c.NestLoopCost(1000, 500)
	for name, v := range map[string]float64{"hash": hj, "merge": mj, "nl": nl} {
		if v <= 0 {
			t.Errorf("%s join cost %f not positive", name, v)
		}
	}
	// With pre-sorted inputs merge beats hash (no build side).
	if mj >= hj {
		t.Errorf("merge join on sorted inputs (%f) not cheaper than hash join (%f)", mj, hj)
	}
}

func TestAggCosts(t *testing.T) {
	c := Coster{P: DefaultCostParams()}
	if c.SortedAggCost(10_000, 100, 2) >= c.HashAggCost(10_000, 100, 2) {
		t.Error("sorted aggregation over pre-sorted input should be cheaper than hash aggregation")
	}
	if c.HashAggCost(10_000, 100, 0) <= 0 {
		t.Error("zero group columns mishandled")
	}
}

func TestInMemoryProfileReducesPageCosts(t *testing.T) {
	d, m := DefaultCostParams(), InMemoryCostParams()
	if m.SeqPageCost >= d.SeqPageCost || m.RandomPageCost >= d.RandomPageCost {
		t.Error("in-memory profile should reduce page costs")
	}
	if m.CPUTupleCost != d.CPUTupleCost {
		t.Error("CPU tuple cost should be the common yardstick")
	}
}
