package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"path"
	"strings"
)

// execPkg is the one package allowed to touch math/rand constructors: it
// owns the SplitMix64 derivation chain and the Domain registry contract.
const execPkg = Module + "/internal/exec"

// seeddomainAnalyzer enforces RNG domain discipline in internal packages:
// every generator family must be constructed through
// exec.DomainRNG/exec.DomainSeed with an exec.Domain whose Tag and ID are
// constants, the Tag must read "<package>/<stream>" for the declaring
// package, and both Tag and ID must be unique across the repository. Raw
// rand.New/rand.NewSource constructions outside internal/exec are
// reported, as is any local reimplementation of the SplitMix64 mix (its
// golden-ratio constant is the tell) — a copy-pasted domain or a private
// hash chain silently correlates two supposedly independent streams, and
// nothing before this analyzer checked for it.
func seeddomainAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "seeddomain",
		Doc:  "require exec.Domain-tagged RNG construction with repo-unique tags and IDs in internal packages",
	}
	// Domain uniqueness spans packages: the registries accumulate across
	// the per-package passes of one run (packages are visited in
	// deterministic topological order, so the "first" declaration is
	// stable).
	tagSeen := map[string]token.Position{}
	idSeen := map[int64]token.Position{}
	a.Run = func(p *Pass) {
		if !strings.HasPrefix(p.Pkg.PkgPath, Module+"/internal/") || p.Pkg.PkgPath == execPkg {
			return
		}
		nestedSource := map[ast.Expr]bool{}
		p.inspect(func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkRawRandCall(p, n, nestedSource)
			case *ast.CompositeLit:
				checkDomainLit(p, n, tagSeen, idSeen)
			case *ast.BasicLit:
				checkSplitMixConstant(p, n)
			}
			return true
		})
	}
	return a
}

// checkRawRandCall reports math/rand generator construction outside the
// blessed exec wrappers. The idiomatic rand.New(rand.NewSource(seed))
// nesting is reported once, at the outer call.
func checkRawRandCall(p *Pass, call *ast.CallExpr, nestedSource map[ast.Expr]bool) {
	fn := calledFunc(p.Pkg.Info, call)
	switch randFunc(fn) {
	case "New", "NewSource", "NewPCG", "NewChaCha8":
	default:
		return
	}
	if fn.Name() == "New" && len(call.Args) == 1 {
		nestedSource[ast.Unparen(call.Args[0])] = true
	} else if nestedSource[call] {
		return
	}
	p.Report(call, "raw rand.%s constructs an untagged stream; declare a package-level exec.Domain and use exec.DomainRNG(base, domain, coords...) (or exec.ScratchRNG + exec.Reseed in hot loops)", fn.Name())
}

// checkDomainLit validates an exec.Domain composite literal: constant
// fields, "<package>/<stream>" tag naming, and repo-wide uniqueness of
// both tag and ID.
func checkDomainLit(p *Pass, lit *ast.CompositeLit, tagSeen map[string]token.Position, idSeen map[int64]token.Position) {
	if qualifiedName(p.TypeOf(lit)) != execPkg+".Domain" {
		return
	}
	var tagExpr, idExpr ast.Expr
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok {
				switch key.Name {
				case "Tag":
					tagExpr = kv.Value
				case "ID":
					idExpr = kv.Value
				}
			}
			continue
		}
		switch i { // positional: struct field order is Tag, ID
		case 0:
			tagExpr = elt
		case 1:
			idExpr = elt
		}
	}
	if tagExpr == nil || idExpr == nil {
		p.Report(lit, "exec.Domain literal must set both Tag and ID so the stream family is identifiable")
		return
	}
	tagVal := constValue(p.Pkg.Info, tagExpr)
	idVal := constValue(p.Pkg.Info, idExpr)
	if tagVal == nil || tagVal.Kind() != constant.String || idVal == nil || idVal.Kind() != constant.Int {
		p.Report(lit, "exec.Domain Tag and ID must be constants the analyzer can read and de-duplicate")
		return
	}
	tag := constant.StringVal(tagVal)
	id, _ := constant.Int64Val(idVal)
	if want := path.Base(p.Pkg.PkgPath) + "/"; !strings.HasPrefix(tag, want) || len(tag) == len(want) {
		p.Report(tagExpr, "domain tag %q must read %q for a stream declared in this package", tag, want+"<stream>")
	}
	pos := p.Fset.Position(lit.Pos())
	if prev, dup := tagSeen[tag]; dup {
		p.Report(lit, "domain tag %q already declared at %s:%d; independent streams must not share a tag", tag, prev.Filename, prev.Line)
	} else {
		tagSeen[tag] = pos
	}
	if prev, dup := idSeen[id]; dup {
		p.Report(lit, "domain ID %d already declared at %s:%d; reusing an ID correlates two streams draw-for-draw", id, prev.Filename, prev.Line)
	} else {
		idSeen[id] = pos
	}
}

// splitMixGamma is SplitMix64's golden-ratio increment — the constant a
// private reimplementation of the mix cannot avoid writing down.
//
//lint:allow seeddomain the detector must name the constant it detects
const splitMixGamma = 0x9e3779b97f4a7c15

// checkSplitMixConstant reports integer literals equal to the SplitMix64
// gamma: a hand-rolled hash chain bypasses the collision-resistance
// argument exec.Seed rests on.
func checkSplitMixConstant(p *Pass, lit *ast.BasicLit) {
	if lit.Kind != token.INT {
		return
	}
	v := constValue(p.Pkg.Info, lit)
	if v == nil || v.Kind() != constant.Int {
		return
	}
	if v, exact := constant.Uint64Val(v); exact && v == splitMixGamma {
		p.Report(lit, "SplitMix64 constant %#x: derive seeds through exec.Seed/exec.DomainSeed instead of reimplementing the mix", uint64(splitMixGamma))
	}
}
