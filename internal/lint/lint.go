// Package lint implements pinum-lint: a suite of static analyzers that
// machine-check the invariants this repository's correctness story rests
// on, in the style of golang.org/x/tools/go/analysis.
//
// The whole value of the PINUM reproduction is that the planner stays
// bit-identical to its test oracle (the original planner loop, kept with
// the optimizer's tests), that plan caches are immutable once published and
// shared across serving goroutines, and that the snapshot codec is
// byte-deterministic. Those invariants are enforced after the fact by
// equivalence and fuzz suites — which catch a violation only when a test
// input happens to hit it. The analyzers here move the common violation
// shapes to build failures:
//
//   - determinism: no map iteration, wall-clock or math/rand use in
//     result-affecting packages unless the site is provably order-safe or
//     carries a justified //pinum:nondeterministic-ok directive;
//   - sealedmut: no writes to shared-immutable cache structures
//     (inum.Cache, inum.CachedPlan, plancache.Snapshot/QueryPlans) outside
//     their constructor packages;
//   - costarith: no floating-point cost arithmetic outside the optimizer
//     package, so the planner and the cached cost model cannot drift onto
//     separate arithmetic through a helper reimplemented elsewhere;
//   - hotpath: no known allocation patterns (fmt, unhinted append growth,
//     capturing closures, string concatenation) in functions marked
//     //pinum:hotpath;
//   - directive: every //pinum: directive is spelled correctly and every
//     suppression carries a justification.
//
// The framework mirrors the go/analysis API (Analyzer, Pass, Diagnostic)
// so the suite can migrate to the real framework mechanically if
// golang.org/x/tools ever becomes a dependency; it is self-contained on
// the standard library because this repository deliberately has none.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ModulePath is the import-path root of this repository; analyzers match
// package scopes against paths under it.
const ModulePath = "github.com/pinumdb/pinum"

// PkgPath returns the full import path of a package inside this module
// given its module-relative path (e.g. "internal/optimizer").
func PkgPath(rel string) string { return ModulePath + "/" + rel }

// Analyzer is one invariant checker, mirroring analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run selections.
	Name string
	// Doc is the one-paragraph description printed by pinum-lint -list.
	Doc string
	// Suppress is the //pinum: directive name that silences this
	// analyzer's diagnostics at a site ("" = not suppressible).
	Suppress string
	// Run reports diagnostics through the pass.
	Run func(*Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries one analyzer's view of one type-checked package,
// mirroring analysis.Pass.
type Pass struct {
	Analyzer   *Analyzer
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	TypesInfo  *types.Info
	Directives *Directives

	diags []Diagnostic
}

// Reportf records a finding unless a matching suppression directive
// covers the position (the directive's own line or the line below it).
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	if p.Analyzer.Suppress != "" && p.Directives.SuppressedAt(p.Fset, pos, p.Analyzer.Suppress) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the given analyzers over one loaded package and returns
// the findings sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			TypesInfo:  pkg.Info,
			Directives: pkg.Directives,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
		out = append(out, pass.diags...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}

// inScope reports whether the package path is one of the given
// module-relative package paths.
func inScope(pkgPath string, rels []string) bool {
	for _, rel := range rels {
		if pkgPath == PkgPath(rel) {
			return true
		}
	}
	return false
}

// isPkgFunc reports whether the called expression resolves to the named
// function (or method-less object) of the named package, e.g.
// isPkgFunc(info, call.Fun, "time", "Now").
func isPkgFunc(info *types.Info, fun ast.Expr, pkgPath, name string) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// calleePkg returns the defining package path of a called selector
// function, or "".
func calleePkg(info *types.Info, fun ast.Expr) string {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// exprString renders a small expression for diagnostics (best effort —
// complex expressions degrade to a placeholder rather than a full
// printer dependency).
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.ParenExpr:
		return "(" + exprString(e.X) + ")"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	}
	return "<expr>"
}

// isBuiltin reports whether the identifier resolves to a predeclared
// builtin (append, delete, clear, ...) rather than a shadowing object.
func isBuiltin(info *types.Info, id *ast.Ident) bool {
	_, ok := info.Uses[id].(*types.Builtin)
	return ok
}

// namedOf unwraps pointers and aliases down to a *types.Named, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// enclosingFunc returns the FuncDecl whose body contains pos, or nil.
func enclosingFunc(files []*ast.File, pos token.Pos) *ast.FuncDecl {
	for _, f := range files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil &&
				pos >= fd.Pos() && pos <= fd.End() {
				return fd
			}
		}
	}
	return nil
}

// containsFold reports case-insensitive substring containment.
func containsFold(s, sub string) bool {
	return strings.Contains(strings.ToLower(s), sub)
}
