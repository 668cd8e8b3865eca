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

// HeapShape is the heap an index scan on a table visits (pages, tuples per
// page), for TestHoistedFactsMatchDerivations's direct derivation.
var HeapShape = heapShape

// ColumnSel returns the combined selectivity of the relation's filters on
// the named column, and whether it has any — the ordinal-keyed list
// NewAnalysis fixes, read by name for TestHoistedFactsMatchDerivations.
func (ri *RelInfo) ColumnSel(col string) (float64, bool) {
	if k := indexOfOrdinal(ri.filtered, ri.Table.ColumnOrdinal(col)); k >= 0 {
		return ri.filtered[k].val, true
	}
	return 1, false
}

// Folded counts the configuration indexes relation rel of a folds under
// g — its table's group plus the residual list, or the whole configuration
// — for TestBoundPricingMatchesNames's check that grouping dismisses what
// it should.
func (g *ConfigByTable) Folded(a *Analysis, rel int) int {
	own, rest := g.lists(a.Rels[rel].Table)
	return len(own) + len(rest)
}

// OptimizeReference plans with the test oracle (reference_test.go), for the
// external test package's equivalence suites; ValidOptions are the nine
// option sets those suites plan under.
var (
	OptimizeReference = optimizeReference
	ValidOptions      = validOptions
)

// EachJoinRelPath plans (a, cfg, opt) with the planner and hands visit
// the tree of every plan each join relation of the DP table kept, beside the
// relation's row count — the population joinPaths prices pairs over
// (TestJoinRelPathsShareRows).
func EachJoinRelPath(a *Analysis, cfg *query.Config, opt Options, visit func(set RelSet, relRows float64, pt *Path)) error {
	p := new(planner)
	p.reset(a, cfg, opt)
	defer p.release()
	if _, err := p.planFast(); err != nil {
		return err
	}
	p.startTrees()
	each := func(jr joinRel) {
		for r := jr.lo; r < jr.hi; r++ {
			visit(jr.set, jr.rows, p.tree(r))
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

// ExportWithTrees is Workspace.Export that also hands tree, after each
// call's summaries, the Path tree of every plan the call exported, built
// from the records the summaries were read from (TestSlimExportsMatchTrees).
func ExportWithTrees(w *Workspace, a *Analysis, cfg *query.Config, opts []Options, emit func(*Summary), tree func(*Path)) error {
	for _, opt := range opts {
		if err := exportWithTrees(w, a, cfg, opt, emit, tree); err != nil {
			return err
		}
	}
	return nil
}

func exportWithTrees(w *Workspace, a *Analysis, cfg *query.Config, opt Options, emit func(*Summary), tree func(*Path)) error {
	p := w.planners(1)[0]
	p.reset(a, cfg, opt)
	defer p.release()
	final, err := p.plan()
	if err != nil {
		return err
	}
	w.summaries(p, final, emit)
	p.startTrees()
	for r := final.lo; r < final.hi; r++ {
		tree(p.tree(r))
	}
	return nil
}
