package optimizer

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/storage"
)

// TestDPOptimalityVsExhaustive checks that the dynamic program finds the
// same optimum as brute-force enumeration over all plans it can express,
// approximated here by comparing against the best of many restricted runs:
// every join-order-forcing subset of the configuration must cost at least
// the unrestricted optimum.
func TestDPOptimalityVsExhaustive(t *testing.T) {
	q, _ := debugStarQuery(t)
	a, err := NewAnalysis(q, nil, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	full := debugAllOrdersConfig(t, a)
	best, err := Optimize(a, full, Options{EnableNestLoop: true})
	if err != nil {
		t.Fatal(err)
	}
	// Any subset of the configuration can only produce costlier plans.
	for drop := 0; drop < len(full.Indexes); drop++ {
		sub := &query.Config{}
		for i, ix := range full.Indexes {
			if i != drop {
				sub.Indexes = append(sub.Indexes, ix)
			}
		}
		res, err := Optimize(a, sub, Options{EnableNestLoop: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Best.Cost < best.Best.Cost*(1-1e-9) {
			t.Errorf("dropping index %d made the plan cheaper: %f < %f",
				drop, res.Best.Cost, best.Best.Cost)
		}
	}
}

// TestNestLoopFlagRemovesNestLoops verifies the §V-B enable_nestloop tweak:
// with the flag off, no plan in the search space contains a nested loop.
func TestNestLoopFlagRemovesNestLoops(t *testing.T) {
	q, _ := debugStarQuery(t)
	a, err := NewAnalysis(q, nil, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := debugAllOrdersConfig(t, a)
	res, err := Optimize(a, cfg, Options{ExportAll: true})
	if err != nil {
		t.Fatal(err)
	}
	var check func(p *Path) bool
	check = func(p *Path) bool {
		if p == nil {
			return true
		}
		if p.Op == OpNestLoop || p.Op == OpNestLoopMat {
			return false
		}
		return check(p.Outer) && check(p.Inner) && check(p.Child)
	}
	for _, p := range res.Exported {
		if !check(p) {
			t.Fatalf("nested loop survived with EnableNestLoop=false:\n%s", Explain(p, q))
		}
	}
}

// TestCostDecomposition verifies the INUM linearity invariant on every
// exported plan: Cost == Internal + Σ coef × leaf access cost.
func TestCostDecomposition(t *testing.T) {
	q, _ := debugStarQuery(t)
	a, err := NewAnalysis(q, nil, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := debugAllOrdersConfig(t, a)
	res, err := Optimize(a, cfg, Options{ExportAll: true, EnableNestLoop: true, PreciseNLJ: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Exported {
		if d := math.Abs(p.Cost - p.Internal - p.LeafCost); d > 1e-6*(1+p.Cost) {
			t.Fatalf("decomposition broken: cost %f != internal %f + leaf %f", p.Cost, p.Internal, p.LeafCost)
		}
		if p.Internal < 0 || p.LeafCost < 0 {
			t.Fatalf("negative cost component: internal %f leaf %f", p.Internal, p.LeafCost)
		}
	}
}

// TestOrderByForcesSortedOutput checks the grouping planner: the best plan
// of an ORDER BY query must deliver the requested order.
func TestOrderByForcesSortedOutput(t *testing.T) {
	q, _ := debugStarQuery(t)
	a, err := NewAnalysis(q, nil, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(a, nil, Options{EnableNestLoop: true})
	if err != nil {
		t.Fatal(err)
	}
	if !OrderSatisfies(res.Best.Order, q.OrderBy) {
		t.Fatalf("best plan does not deliver ORDER BY: order=%v want=%v", res.Best.Order, q.OrderBy)
	}
}

func TestExplainMentionsOperators(t *testing.T) {
	q, _ := debugStarQuery(t)
	a, err := NewAnalysis(q, nil, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(a, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := Explain(res.Best, q)
	for _, want := range []string{"Seq Scan", "rows=", "cost="} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output misses %q:\n%s", want, out)
		}
	}
}

func TestRelSetOps(t *testing.T) {
	s := Single(0) | Single(3) | Single(5)
	if s.Count() != 3 || !s.Has(3) || s.Has(1) {
		t.Errorf("set ops wrong: %b", s)
	}
	m := s.Members()
	if len(m) != 3 || m[0] != 0 || m[1] != 3 || m[2] != 5 {
		t.Errorf("Members = %v", m)
	}
}

func TestOrderSatisfiesPrefix(t *testing.T) {
	a := []query.ColRef{{Rel: 0, Column: "x"}, {Rel: 1, Column: "y"}}
	if !OrderSatisfies(a, a[:1]) {
		t.Error("prefix not satisfied")
	}
	if !OrderSatisfies(a, nil) {
		t.Error("empty requirement not satisfied")
	}
	if OrderSatisfies(a[:1], a) {
		t.Error("shorter order satisfied longer requirement")
	}
	if OrderSatisfies(nil, a[:1]) {
		t.Error("nil order satisfied requirement")
	}
}

// Property: selectivity-driven row estimates are positive and joining more
// relations never increases the estimated cardinality product beyond the
// cartesian bound.
func TestJoinRowsProperties(t *testing.T) {
	q, _ := debugStarQuery(t)
	a, err := NewAnalysis(q, nil, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	full := RelSet(1<<uint(len(q.Rels))) - 1
	f := func(raw uint8) bool {
		s := RelSet(raw) & full
		if s == 0 {
			return true
		}
		rows := a.JoinRows(s)
		if rows < 1 {
			return false
		}
		cartesian := 1.0
		for _, i := range s.Members() {
			cartesian *= math.Max(a.Rels[i].Rows, 1)
		}
		return rows <= cartesian*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestIndexOnlyCheaperThanHeapScan pins a cost-model sanity property: a
// covering index scan never costs more than the same index scan with heap
// fetches.
func TestIndexOnlyCheaperThanHeapScan(t *testing.T) {
	q, cat := debugStarQuery(t)
	a, err := NewAnalysis(q, nil, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	f := cat.Table("f")
	covering := storage.HypotheticalIndex("cov", f, []string{"fk1", "fk2", "fk3", "m1", "a1"})
	thin := storage.HypotheticalIndex("thin", f, []string{"fk1"})
	covCost := a.IndexScanCost(0, covering)
	thinCost := a.IndexScanCost(0, thin)
	if !covCost.IndexOnly {
		t.Fatal("covering index not detected as index-only")
	}
	if covCost.Cost >= thinCost.Cost {
		t.Errorf("index-only scan (%.1f) not cheaper than heap-fetching scan (%.1f)",
			covCost.Cost, thinCost.Cost)
	}
}

// TestAccessCostAgreesWithScanPaths pins the shared-coster invariant: the
// cache evaluator's AccessCost for AccessAny equals the cheapest scan the
// planner would build for that relation under the same configuration.
func TestAccessCostAgreesWithScanPaths(t *testing.T) {
	q, _ := debugStarQuery(t)
	a, err := NewAnalysis(q, nil, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := debugAllOrdersConfig(t, a)
	p := new(planner)
	p.reset(a, cfg, Options{})
	defer p.release()
	for rel := range a.Rels {
		jr := p.scanPaths(rel)
		var cheapest float64 = math.Inf(1)
		for r := jr.lo; r < jr.hi; r++ {
			if rec := p.recs.at(r); rec.cost < cheapest {
				cheapest = rec.cost
			}
		}
		got, ok := a.AccessCost(rel, LeafReq{Mode: AccessAny, Coef: 1}, cfg)
		if !ok {
			t.Fatalf("rel %d: AccessAny inapplicable", rel)
		}
		if math.Abs(got-cheapest) > 1e-9*(1+cheapest) {
			t.Errorf("rel %d: AccessCost %f != cheapest scan path %f", rel, got, cheapest)
		}
	}
}

// TestEmptyLeafSlotTable checks the seam incremental evaluators seed from:
// under the empty configuration (nil or no indexes) a relation's AccessAny
// slot is the sequential-scan cost and every ordered/lookup slot is +Inf,
// and the per-leaf reference AccessCost agrees slot for slot.
func TestEmptyLeafSlotTable(t *testing.T) {
	q, _ := debugStarQuery(t)
	a, err := NewAnalysis(q, nil, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	empty := &query.Config{}
	slots := a.PriceLeafSlots(nil, nil)
	if len(slots) != a.NumLeafSlots() {
		t.Fatalf("table has %d slots, NumLeafSlots = %d", len(slots), a.NumLeafSlots())
	}
	for i, c := range a.PriceLeafSlots(nil, empty) {
		if math.Float64bits(c) != math.Float64bits(slots[i]) {
			t.Errorf("slot %d: nil configuration %v != empty configuration %v", i, slots[i], c)
		}
	}
	seen := 0
	for rel := range a.Rels {
		anySlot, err := a.LeafSlot(rel, LeafReq{Mode: AccessAny})
		if err != nil {
			t.Fatal(err)
		}
		got := slots[anySlot]
		if math.Float64bits(got) != math.Float64bits(a.SeqScanCost(rel)) {
			t.Errorf("rel %d: AccessAny slot %v != seq scan %v", rel, got, a.SeqScanCost(rel))
		}
		full, ok := a.AccessCost(rel, LeafReq{Mode: AccessAny, Coef: 1}, empty)
		if !ok || math.Float64bits(full) != math.Float64bits(got) {
			t.Errorf("rel %d: AccessCost(empty) = (%v, %v), want (%v, true)", rel, full, ok, got)
		}
		seen++
		for _, col := range a.Rels[rel].Interesting {
			for _, mode := range []AccessMode{AccessOrdered, AccessLookup} {
				req := LeafReq{Mode: mode, Col: col, Coef: 1}
				s, err := a.LeafSlot(rel, req)
				if err != nil {
					t.Fatal(err)
				}
				if c := slots[s]; !math.IsInf(c, 1) {
					t.Errorf("rel %d %v(%s): empty-configuration slot = %v, want +Inf", rel, mode, col, c)
				}
				if _, ok := a.AccessCost(rel, req, empty); ok {
					t.Errorf("rel %d %v(%s): satisfied by the empty configuration", rel, mode, col)
				}
				seen++
			}
		}
	}
	if seen != len(slots) {
		t.Errorf("identities visited %d slots of %d: the layout has gaps or overlaps", seen, len(slots))
	}
}
