package optimizer

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
