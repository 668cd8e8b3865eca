package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// costConsumerPkgs are the packages that evaluate or aggregate plan
// costs but must not own cost formulas: every floating-point operation
// on a cost must route through the optimizer package (Coster, AccessCost,
// the leaf-slot table and FoldLeafRow), because that is the code the
// fast/reference equivalence suite pins. A second copy of even one
// addition elsewhere can drift — compiler-legal re-association is enough
// to break bit-identity — and no equivalence test covers it.
//
// internal/optimizer itself is exempt: both planners live there and
// share arithmetic by construction.
var costConsumerPkgs = []string{
	"internal/inum",
	"internal/costmatrix",
	"internal/advisor",
	"internal/serve",
	"internal/core",
	"internal/plancache",
	"internal/whatif",
}

// CostArith flags floating-point arithmetic over cost-typed operands in
// cost-consumer packages. "Cost-typed" is a naming contract: an operand
// whose identifier or field name mentions cost, coef, internal or
// weight. The INUM fold itself is optimizer.FoldLeafRow, shared by
// inum.Cache.Cost and costmatrix; what remains outside the optimizer is
// the workload objective Σ weight × cost, whose equivalence-tested copies
// carry //pinum:costarith-ok directives naming the test that pins them.
var CostArith = &Analyzer{
	Name:     "costarith",
	Suppress: DirCostArithOK,
	Doc: "flag float arithmetic on cost-named operands outside internal/optimizer, so cost " +
		"formulas cannot be duplicated and drift from the equivalence-tested planners; " +
		"intentional, equivalence-pinned mirrors need //pinum:costarith-ok <why>",
	Run: runCostArith,
}

// costLikeNames are the lowercase substrings that mark an operand as
// cost-carrying.
var costLikeNames = []string{"cost", "coef", "internal", "weight"}

func runCostArith(pass *Pass) error {
	if !inScope(pass.Pkg.Path(), costConsumerPkgs) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				switch n.Op {
				case token.ADD, token.SUB, token.MUL, token.QUO:
				default:
					return true
				}
				if !isFloat(pass.TypesInfo.TypeOf(n)) {
					return true
				}
				if costLike(n.X) || costLike(n.Y) {
					pass.Reportf(n.Pos(), "float arithmetic %s %s %s on cost-typed operands outside internal/optimizer: cost formulas must live in the optimizer package the equivalence suite pins; call a shared helper, or annotate //pinum:costarith-ok with the test that pins this mirror", exprString(n.X), n.Op, exprString(n.Y))
				}
			case *ast.AssignStmt:
				switch n.Tok {
				case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				default:
					return true
				}
				if len(n.Lhs) != 1 || !isFloat(pass.TypesInfo.TypeOf(n.Lhs[0])) {
					return true
				}
				if costLike(n.Lhs[0]) || costLike(n.Rhs[0]) {
					pass.Reportf(n.Pos(), "float %s on cost-typed operand %s outside internal/optimizer: cost accumulation must live in the optimizer package the equivalence suite pins; call a shared helper, or annotate //pinum:costarith-ok with the test that pins this mirror", n.Tok, exprString(n.Lhs[0]))
				}
			}
			return true
		})
	}
	return nil
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// costLike reports whether the expression's leaf name carries a
// cost-like name: the identifier itself, the selected field, or — for
// calls — the called function's name.
func costLike(e ast.Expr) bool {
	name := ""
	switch e := e.(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	case *ast.IndexExpr:
		return costLike(e.X)
	case *ast.ParenExpr:
		return costLike(e.X)
	case *ast.CallExpr:
		return costLike(e.Fun)
	case *ast.UnaryExpr:
		return costLike(e.X)
	case *ast.BinaryExpr:
		return costLike(e.X) || costLike(e.Y)
	}
	if name == "" {
		return false
	}
	for _, sub := range costLikeNames {
		if containsFold(name, sub) {
			return true
		}
	}
	return false
}
