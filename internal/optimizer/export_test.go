package optimizer

import "github.com/pinumdb/pinum/internal/query"

// ForceWideLane routes the analysis's ExportAll calls through the wide
// (string-keyed) lane although its keys fit the packed one, for the
// cross-check that holds the two lanes equal (TestKeyLanesAgree). The
// external test package needs the hook because package workload, which
// generates its inputs, imports this one.
func ForceWideLane(a *Analysis) { a.packed = false }

// The two §V-D combo rules, for TestExportIsAntichain's statement of the
// batch pruning rule.
var (
	ComboSubsumes         = comboSubsumes
	ComboSubsumesByColumn = comboSubsumesByColumn
)

// ColumnSel returns the combined selectivity of the relation's filters on
// the named column, and whether it has any — the ordinal-keyed list
// NewAnalysis fixes, read by name for TestHoistedFactsMatchDerivations.
func (ri *RelInfo) ColumnSel(col string) (float64, bool) {
	if k := indexOfOrdinal(ri.filtered, ri.Table.ColumnOrdinal(col)); k >= 0 {
		return ri.filtered[k].val, true
	}
	return 1, false
}

// OptimizeReference plans with the test oracle (reference_test.go), for the
// external test package's equivalence suites.
var OptimizeReference = optimizeReference

// EachJoinRelPath plans (a, cfg, opt) with the planner and hands visit
// every path each join relation of the DP table retained, beside the
// relation's row count — the population joinPaths prices pairs over
// (TestJoinRelPathsShareRows).
func EachJoinRelPath(a *Analysis, cfg *query.Config, opt Options, visit func(set RelSet, relRows float64, pt *Path)) error {
	p := new(planner)
	p.reset(a, cfg, opt)
	defer p.release()
	if _, err := p.planFast(); err != nil {
		return err
	}
	each := func(jr *joinRel) {
		if jr != nil {
			for _, pt := range jr.paths {
				visit(jr.set, jr.rows, pt)
			}
		}
	}
	for _, jr := range p.rels.dense {
		each(jr)
	}
	for _, jr := range p.rels.sparse {
		each(jr)
	}
	return nil
}
