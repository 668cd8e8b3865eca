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
