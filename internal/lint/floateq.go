package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// floateqAnalyzer flags == and != between two computed floating-point
// values: after any arithmetic the comparison is representation-sensitive,
// so "equal" experiment outputs can diverge across architectures or
// optimization levels. Comparisons against a constant (the `x == 0`
// sentinel idiom) are exempt; intentional exact comparisons — e.g.
// deterministic sort tie-breaks — carry a //lint:allow floateq directive.
func floateqAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "floateq",
		Doc:  "flag exact ==/!= between computed floating-point values",
	}
	a.Run = func(p *Pass) {
		p.inspect(func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloat(p.TypeOf(be.X)) || !isFloat(p.TypeOf(be.Y)) {
				return true
			}
			if constValue(p.Pkg.Info, be.X) != nil || constValue(p.Pkg.Info, be.Y) != nil {
				return true
			}
			p.Report(be, "exact floating-point %s comparison is representation-sensitive; compare within a tolerance, or annotate with //lint:allow floateq if exact equality is the point", be.Op)
			return true
		})
	}
	return a
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
