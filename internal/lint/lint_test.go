package lint_test

import (
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/pinumdb/pinum/internal/lint"
	"github.com/pinumdb/pinum/internal/lint/linttest"
)

func fixture(parts ...string) string {
	return filepath.Join(append([]string{"testdata"}, parts...)...)
}

// Each positive fixture seeds the exact bug class the analyzer exists to
// catch; each ok fixture mirrors the real tree's idioms (and annotated
// exceptions) and must produce no diagnostics at all.

func TestDeterminismFlagsSeededCodecBugs(t *testing.T) {
	linttest.Run(t, fixture("determinism", "flag"),
		lint.PkgPath("internal/plancache"), lint.Determinism)
}

func TestDeterminismAllowsRealIdioms(t *testing.T) {
	linttest.Run(t, fixture("determinism", "ok"),
		lint.PkgPath("internal/plancache"), lint.Determinism)
}

func TestDeterminismIgnoresOutOfScopePackages(t *testing.T) {
	linttest.Run(t, fixture("determinism", "outofscope"),
		lint.PkgPath("cmd/pinum-bench"), lint.Determinism)
}

func TestSealedMutFlagsPostPublicationWrites(t *testing.T) {
	linttest.Run(t, fixture("sealedmut", "flag"),
		lint.PkgPath("internal/lintfixture"), lint.SealedMut)
}

func TestSealedMutAllowsCopiesAndJustifiedConstruction(t *testing.T) {
	linttest.Run(t, fixture("sealedmut", "ok"),
		lint.PkgPath("internal/lintfixture"), lint.SealedMut)
}

func TestCostArithFlagsOutOfPackageFormulas(t *testing.T) {
	linttest.Run(t, fixture("costarith", "flag"),
		lint.PkgPath("internal/serve"), lint.CostArith)
}

func TestCostArithAllowsNonCostMathAndPinnedMirrors(t *testing.T) {
	linttest.Run(t, fixture("costarith", "ok"),
		lint.PkgPath("internal/serve"), lint.CostArith)
}

func TestCostArithIgnoresTheOptimizerItself(t *testing.T) {
	// The same seeded formulas are legal inside internal/optimizer, where
	// both planners share arithmetic by construction.
	loader := lint.NewLoader()
	pkg, err := loader.LoadDir(fixture("costarith", "flag"), lint.PkgPath("internal/optimizer"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(pkg, []*lint.Analyzer{lint.CostArith})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic in optimizer scope: %s", d.Message)
	}
}

func TestHotpathFlagsAllocPatterns(t *testing.T) {
	linttest.Run(t, fixture("hotpath", "flag"),
		lint.PkgPath("internal/optimizer"), lint.Hotpath)
}

func TestHotpathAllowsFastplanDiscipline(t *testing.T) {
	linttest.Run(t, fixture("hotpath", "ok"),
		lint.PkgPath("internal/optimizer"), lint.Hotpath)
}

func TestAtomicOnlyFlagsDirectAccess(t *testing.T) {
	linttest.Run(t, fixture("atomiconly", "flag"),
		lint.PkgPath("internal/lintfixture"), lint.AtomicOnly)
}

func TestAtomicOnlyAllowsAccessorDiscipline(t *testing.T) {
	linttest.Run(t, fixture("atomiconly", "ok"),
		lint.PkgPath("internal/lintfixture"), lint.AtomicOnly)
}

func TestDirectiveCheckFlagsVocabularyMistakes(t *testing.T) {
	linttest.Run(t, fixture("directive", "flag"),
		lint.PkgPath("internal/lintfixture"), lint.DirectiveCheck)
}

func TestDirectiveCheckAllowsProperUse(t *testing.T) {
	linttest.Run(t, fixture("directive", "ok"),
		lint.PkgPath("internal/lintfixture"), lint.DirectiveCheck)
}

// TestRealTreeClean runs the full suite over the real tree, the same
// check CI's lint step performs: every invariant violation is either
// fixed or carries a justified directive. Over the same packages, its
// subtest holds internal/ to no exported function or method without a
// shipped caller, bar the named test oracles.
func TestRealTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree lint run is slow; covered by the CI lint step too")
	}
	loader := lint.NewLoader()
	pkgs, err := loader.Load(filepath.Join("..", ".."), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		diags, err := lint.Run(pkg, lint.All())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			pos := loader.Fset.Position(d.Pos)
			t.Errorf("%s:%d: [%s] %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
		}
	}
	t.Run("NoDeadExportedSurface", func(t *testing.T) {
		dead := deadSurface(pkgs)
		for _, name := range dead {
			if testOracles[name] == "" {
				t.Errorf("%s is exported but no non-test package calls it: delete it, or add it to testOracles naming the test it serves", name)
			}
		}
		for name := range testOracles {
			if !slices.Contains(dead, name) {
				t.Errorf("testOracles lists %s, which shipped code now calls or which no longer exists: drop the entry", name)
			}
		}
	})
}

// testOracles are the exported functions and methods of internal/ that no
// non-test package calls and that stay anyway, each with the test it serves.
var testOracles = map[string]string{
	"(*github.com/pinumdb/pinum/internal/btree.Tree).Insert":            "btree's TestBulkEqualsInsert: the incremental oracle for Bulk",
	"(*github.com/pinumdb/pinum/internal/btree.Tree).Validate":          "btree's property tests: the tree invariants",
	"(github.com/pinumdb/pinum/internal/query.OrderCombo).Key":          "query's TestComboEnumeration and plancache's TestSlimTree*Equivalence: the combination key",
	"(*github.com/pinumdb/pinum/internal/query.Config).Atomic":          "workload's TestRandomAtomicConfigIsAtomic and inum's TestCoveringConfigIsAtomicAndCovers",
	"(*github.com/pinumdb/pinum/internal/optimizer.Workspace).Optimize": "optimizer's FuzzOptimizeEquivalence and TestWorkspaceReuseBitIdentical: planner reuse",
	"github.com/pinumdb/pinum/internal/faultpoint.Clear":                "faultpoint's test API: serve's reload tests",
	"github.com/pinumdb/pinum/internal/faultpoint.Count":                "faultpoint's test API: serve's candidates and reload tests",
	"github.com/pinumdb/pinum/internal/faultpoint.Reset":                "faultpoint's test API: every test that arms a fault",
	"github.com/pinumdb/pinum/internal/lint/linttest.Run":               "lint's fixture tests: the harness",
}

// interfaceNames are method names a standard-library interface calls
// (fmt.Stringer, error, io.Writer, io.Closer, http.ResponseWriter,
// flag.Value): such a method is reached through the interface, which the
// scan does not see.
var interfaceNames = map[string]bool{
	"String": true, "Error": true, "Write": true, "Header": true,
	"WriteHeader": true, "Close": true, "Set": true,
}

// deadSurface lists, sorted, the exported functions and methods declared
// in the module's internal/ packages that no loaded package uses, keyed by
// (*types.Func).FullName. The loader type-checks each package from its
// own syntax and its imports through the source importer, so a function's
// object in its package is not the object its importers use; its full
// name is the same in both.
func deadSurface(pkgs []*lint.Package) []string {
	used := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin().FullName()] = true
			}
		}
	}
	var dead []string
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, lint.PkgPath("internal/")) {
			continue
		}
		for _, obj := range pkg.Info.Defs {
			fn, ok := obj.(*types.Func)
			if !ok || !fn.Exported() || used[fn.FullName()] {
				continue
			}
			if fn.Type().(*types.Signature).Recv() != nil && interfaceNames[fn.Name()] {
				continue
			}
			dead = append(dead, fn.FullName())
		}
	}
	sort.Strings(dead)
	return dead
}
