package optimizer

import (
	"testing"
)

// incrementalFrontier reproduces the original incremental pruning for
// comparison with the batch pruning of the oracle's batchPrune.
func incrementalFrontier(paths []*Path) []*Path {
	var out []*Path
	dominates := func(a, b *Path) bool {
		return OrderSatisfies(a.Order, b.Order) &&
			a.Internal <= b.Internal &&
			comboSubsumes(a.Leaves, b.Leaves, a.Rels, true)
	}
	for _, np := range paths {
		skip := false
		for _, old := range out {
			if dominates(old, np) {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		keep := out[:0]
		for _, old := range out {
			if !dominates(np, old) {
				keep = append(keep, old)
			}
		}
		out = append(keep, np)
	}
	return out
}

// TestFrontierEquivalence checks that batch subsumption pruning and the
// incremental variant agree on a real DP-generated path population: the
// test oracle's, pruned by its batch pass (reference_test.go).
func TestFrontierEquivalence(t *testing.T) {
	q, _ := debugStarQuery(t)
	a, err := NewAnalysis(q, nil, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := debugAllOrdersConfig(t, a)

	// Capture the raw generated paths of the 3-relation joinrels by
	// running the planner on a trimmed 3-relation query.
	q3 := *q
	q3.Rels = q.Rels[:3]
	q3.Joins = q.Joins[:2]
	q3.Select = q.Select[:2]
	q3.GroupBy = q.GroupBy[:1]
	q3.OrderBy = nil
	a3, err := NewAnalysis(&q3, nil, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	r := &refPlanner{a: a3, cfg: cfg, opt: Options{EnableNestLoop: true, ExportAll: true, PreciseNLJ: true}, res: &Result{}}
	top, err := r.sweep()
	if err != nil {
		t.Fatal(err)
	}
	batch := top.paths

	inc := incrementalFrontier(batch)
	// Frontier of a frontier must be itself: if incremental pruning finds
	// dominated paths inside batchPrune's output, batch pruning is leaky.
	if len(inc) != len(batch) {
		t.Errorf("batch frontier has %d paths but %d survive incremental re-pruning",
			len(batch), len(inc))
		dominates := func(a, b *Path) bool {
			return OrderSatisfies(a.Order, b.Order) &&
				a.Internal <= b.Internal &&
				comboSubsumes(a.Leaves, b.Leaves, a.Rels, true)
		}
		shown := 0
		for _, bp := range batch {
			found := false
			for _, ip := range inc {
				if ip == bp {
					found = true
					break
				}
			}
			if !found && shown < 5 {
				shown++
				t.Logf("dominated survivor: internal=%.2f order=%v leaves=%v",
					bp.Internal, bp.Order, bp.Leaves)
				for _, ip := range inc {
					if dominates(ip, bp) {
						t.Logf("   dominated by: internal=%.2f order=%v leaves=%v",
							ip.Internal, ip.Order, ip.Leaves)
						break
					}
				}
			}
		}
	}
}
