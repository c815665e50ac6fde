package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Module is the import-path prefix of this repository; nondeterm scopes
// itself to the module's internal tree, where the determinism contract
// holds (examples and demo binaries may be as casual as they like).
const Module = "github.com/openspace-project/openspace"

// seedFuncs are the blessed seed-derivation paths: every parallel task
// derives its stream from (base seed, task coordinates) through SplitMix64
// so results never depend on worker scheduling. DomainSeed is Seed with a
// named stream family folded in first (see the seeddomain analyzer).
var seedFuncs = map[string]bool{
	Module + "/internal/exec.Seed":       true,
	Module + "/internal/exec.DomainSeed": true,
}

// nondetermAnalyzer forbids the three ways nondeterminism has historically
// entered simulation codebases: reading the wall clock, drawing from the
// process-global math/rand state (ordered by goroutine scheduling), and
// seeding a fresh source from anything that is not a constant, a plumbed
// seed variable, or an exec.Seed derivation.
func nondetermAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "nondeterm",
		Doc:  "forbid time.Now, global math/rand, and non-derived RNG seeds in internal packages",
	}
	a.Run = func(p *Pass) {
		if !strings.HasPrefix(p.Pkg.PkgPath, Module+"/internal/") {
			return
		}
		p.inspect(func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calledFunc(p.Pkg.Info, call)
			if fn == nil {
				return true
			}
			switch rf := randFunc(fn); rf {
			case "":
				if fn.FullName() == "time.Now" {
					p.Report(call, "time.Now makes output depend on the wall clock; take the timestamp as a parameter or config field")
				}
			case "New", "NewZipf", "NewChaCha8":
				// Constructors create the task-owned generators the
				// contract requires.
			case "NewSource", "NewPCG":
				if len(call.Args) > 0 {
					checkSeedExpr(p, call.Args[0])
				}
			default: // every other function draws from the global source
				p.Report(call, "global math/rand.%s draws from process-shared state whose order depends on goroutine scheduling; thread a task-owned *rand.Rand derived via exec.RNG(seed, coords...)", rf)
			}
			return true
		})
	}
	return a
}

// checkSeedExpr walks a seed expression and reports any call that could
// smuggle nondeterminism into the source: constants, plumbed variables,
// arithmetic on them, conversions, exec.Seed derivations, and draws from
// an existing *rand.Rand are all fine; any other function call is not a
// reproducible seed.
func checkSeedExpr(p *Pass, seed ast.Expr) {
	ast.Inspect(seed, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, ok := p.Pkg.Info.Types[call.Fun]; ok && tv.IsType() {
			return true // conversion like int64(x): keep scrutinizing x
		}
		fn := calledFunc(p.Pkg.Info, call)
		if fn != nil {
			if seedFuncs[fn.FullName()] {
				return false // the blessed derivation
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && randType(deref(recv.Type())) == "Rand" {
				return false // child seed drawn from a task-owned generator
			}
		}
		name := "a function"
		if fn != nil {
			name = fn.FullName()
		}
		p.Report(call, "seed expression calls %s; seeds must be constants, plumbed variables, or exec.Seed(base, coords...) derivations so reruns reproduce", name)
		return false
	})
}
