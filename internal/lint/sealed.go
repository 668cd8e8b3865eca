package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// protectedTypes lists the shared-immutable structures of the serving
// concurrency model: once a cache is built and published it is read
// concurrently by every /whatif, /recommend and /explain goroutine with
// no locking, which is only sound because nothing writes to it. Each
// entry maps a defining package to its protected type names and the
// packages allowed to write (the constructors).
var protectedTypes = []struct {
	pkg     string   // module-relative defining package
	names   []string // protected named types
	writers []string // module-relative packages allowed to write
}{
	{
		pkg:   "internal/inum",
		names: []string{"Cache"},
		// inum constructs; core's two-call PINUM builders and
		// plancache's snapshot reconstruction (BuildCaches) fill Stats
		// during construction, before the cache is published.
		writers: []string{"internal/inum", "internal/core", "internal/plancache"},
	},
	{
		pkg:     "internal/plancache",
		names:   []string{"Snapshot", "QueryPlans"},
		writers: []string{"internal/plancache"},
	},
}

// SealedMut flags writes that reach a protected shared-immutable
// structure from outside its constructor packages: field assignments
// (including through selector/index chains rooted at a protected value),
// op-assignments, ++/--, and delete/clear on protected fields. Writing
// to a plain value copy of a protected struct is allowed — a copy cannot
// alias the shared cache.
//
// This is the static side of the published contract: a cache is written
// only while it is built, then the serving layer shares it across
// goroutines, so a write after publication from a consumer package is a
// data race even if no test ever schedules it.
var SealedMut = &Analyzer{
	Name:     "sealedmut",
	Suppress: DirSealedOK,
	Doc: "flag writes to shared-immutable cache structures (inum.Cache and " +
		"plancache.Snapshot/QueryPlans, and their arenas) outside their constructor packages; " +
		"intentional pre-publication writes need //pinum:sealed-ok <why>",
	Run: runSealedMut,
}

func runSealedMut(pass *Pass) error {
	path := pass.Pkg.Path()
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range n.Lhs {
					checkProtectedWrite(pass, path, lhs, "assignment")
				}
			case *ast.IncDecStmt:
				checkProtectedWrite(pass, path, n.X, "increment/decrement")
			case *ast.CallExpr:
				if fn, ok := n.Fun.(*ast.Ident); ok && len(n.Args) >= 1 {
					if fn.Name == "delete" || fn.Name == "clear" {
						if isBuiltin(pass.TypesInfo, fn) {
							checkProtectedWrite(pass, path, n.Args[0], fn.Name)
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkProtectedWrite walks the selector/index chain of a write target
// and reports if any link is (a pointer to) a protected type whose
// constructor packages do not include the current one. The chain root
// itself only counts when it is a pointer: a value-typed root is a local
// copy, and mutating a copy cannot corrupt the shared structure.
func checkProtectedWrite(pass *Pass, pkgPath string, target ast.Expr, what string) {
	expr := target
	for {
		var base ast.Expr
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
			continue
		case *ast.SelectorExpr:
			base = e.X
		case *ast.IndexExpr:
			base = e.X
		case *ast.StarExpr:
			base = e.X
		default:
			return
		}
		t := pass.TypesInfo.TypeOf(base)
		if t != nil {
			_, isPtr := t.(*types.Pointer)
			_, isRoot := base.(*ast.Ident)
			if named := namedOf(t); named != nil && (isPtr || !isRoot) {
				if owner, protected := protectionOf(named); protected && !inScope(pkgPath, owner.writers) {
					pass.Reportf(target.Pos(),
						"%s writes to %s through %s.%s, which is shared immutable after construction; only %s may write it — route the change through a constructor, or annotate //pinum:sealed-ok with why this cannot race",
						what, exprString(target), owner.pkg, named.Obj().Name(), writersList(owner.writers))
					return
				}
			}
		}
		expr = base
	}
}

func protectionOf(named *types.Named) (struct {
	pkg     string
	names   []string
	writers []string
}, bool) {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return protectedTypes[0], false
	}
	for _, p := range protectedTypes {
		if obj.Pkg().Path() != PkgPath(p.pkg) {
			continue
		}
		for _, name := range p.names {
			if obj.Name() == name {
				return p, true
			}
		}
	}
	return protectedTypes[0], false
}

func writersList(writers []string) string {
	s := ""
	for i, w := range writers {
		if i > 0 {
			s += ", "
		}
		s += w
	}
	return s
}
