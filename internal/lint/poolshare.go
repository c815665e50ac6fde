package lint

import (
	"go/ast"
	"go/types"
)

// poolshareAnalyzer enforces the sharing contract on closures handed to
// the internal/exec pool-submit APIs (exec.Map, exec.MapAll): tasks run
// concurrently, so a task closure may read its captures but may write
// captured state only when the writes are provably per-task-disjoint —
// indexed by the task index, as in out[i] = v. Everything else is
// reported: plain writes to captured variables, writes through captured
// pointers, map writes (never index-disjoint — concurrent map access
// races on the map header regardless of key), appends to captured slices
// (they mutate shared backing storage and the shared length), and any use
// of a captured *rand.Rand (every draw mutates the generator, so "reads"
// are writes; derive a per-task stream with exec.RNG(seed, i) instead).
//
// This is the static complement to the CI race job: the race detector
// only sees the interleavings that executed, while poolshare rejects the
// shape of the bug before any schedule runs it. Task functions that are
// not closure literals cannot be checked and are reported as such —
// //lint:allow poolshare with a reason is the escape hatch for a task
// function proven disjoint by other means. Writes reached through method
// calls on captured receivers are out of scope (the race job's half of
// the contract).
func poolshareAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "poolshare",
		Doc:  "require closures passed to exec pool-submit APIs to write only per-task-disjoint captured state",
		Run: func(p *Pass) {
			p.inspect(func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calledFunc(p.Pkg.Info, call)
				if !isPoolSubmit(fn) {
					return true
				}
				checkPoolTask(p, fn.Name(), call)
				return true
			})
		},
	}
}

// isPoolSubmit reports whether fn is one of internal/exec's pool-submit
// entry points: the functions whose task argument runs on pool workers.
func isPoolSubmit(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != execPkg {
		return false
	}
	switch fn.Name() {
	case "Map", "MapAll":
		return true
	}
	return false
}

// checkPoolTask locates the task function among the call's arguments and
// checks its body when it is a literal.
func checkPoolTask(p *Pass, api string, call *ast.CallExpr) {
	for _, arg := range call.Args {
		t := p.TypeOf(arg)
		if t == nil {
			continue
		}
		if _, ok := t.Underlying().(*types.Signature); !ok {
			continue
		}
		lit, ok := ast.Unparen(arg).(*ast.FuncLit)
		if !ok {
			p.Report(arg, "task function passed to exec.%s is not a closure literal; poolshare cannot prove its captures are task-disjoint — inline the closure at the submit site", api)
			continue
		}
		(&poolCheck{p: p, api: api, lit: lit, reportedRNG: map[types.Object]bool{}, covered: map[ast.Node]bool{}}).check()
	}
}

// poolCheck is one task closure's walk.
type poolCheck struct {
	p       *Pass
	api     string
	lit     *ast.FuncLit
	taskIdx types.Object
	// reportedRNG dedups the captured-generator finding to one per
	// generator per closure.
	reportedRNG map[types.Object]bool
	// covered marks append calls already reported through their enclosing
	// assignment, so s = append(s, v) yields one finding, not two.
	covered map[ast.Node]bool
}

func (c *poolCheck) check() {
	if params := c.lit.Type.Params; params != nil && len(params.List) > 0 && len(params.List[0].Names) > 0 {
		c.taskIdx = c.p.Pkg.Info.Defs[params.List[0].Names[0]]
	}
	ast.Inspect(c.lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Lhs) == len(n.Rhs) {
					rhs = n.Rhs[i]
				}
				c.checkWrite(lhs, rhs)
			}
		case *ast.IncDecStmt:
			c.checkWrite(n.X, nil)
		case *ast.CallExpr:
			c.checkCall(n)
		case *ast.Ident:
			c.checkRandUse(n)
		}
		return true
	})
}

// captured reports whether the object is a variable declared outside the
// task closure — enclosing-function locals, parameters, named results,
// and package-level state all count; every task shares them.
func (c *poolCheck) captured(o types.Object) bool {
	v, ok := o.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	return v.Pos() < c.lit.Pos() || v.Pos() > c.lit.End()
}

// writeClass classifies a write target inside a task closure.
type writeClass int

const (
	writeLocal     writeClass = iota // rooted at closure-local state: fine
	writeDisjoint                    // rooted at captured[taskIndex]: fine
	writeShared                      // anything else captured: a race
	writeSharedMap                   // captured map: never disjoint
)

// classify resolves a write target to its sharing class and the captured
// root's name. Disjointness is established exactly once, at an index
// expression whose base is a directly captured slice/array and whose
// index is the task-index parameter itself; selectors and further indexes
// below that stay disjoint (out[i].field, out[i][j]).
func (c *poolCheck) classify(e ast.Expr) (writeClass, string) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		o := c.p.Pkg.Info.Uses[e]
		if o == nil {
			o = c.p.Pkg.Info.Defs[e]
		}
		if o != nil && c.captured(o) {
			return writeShared, e.Name
		}
		return writeLocal, e.Name
	case *ast.IndexExpr:
		if isMap(c.p.TypeOf(e.X)) {
			cls, name := c.classify(e.X)
			if cls == writeLocal {
				return writeLocal, name
			}
			return writeSharedMap, name
		}
		cls, name := c.classify(e.X)
		if cls == writeShared && c.isTaskIndex(e.Index) {
			if _, direct := ast.Unparen(e.X).(*ast.Ident); direct {
				return writeDisjoint, name
			}
		}
		return cls, name
	case *ast.SelectorExpr:
		return c.classify(e.X)
	case *ast.StarExpr:
		cls, name := c.classify(e.X)
		if cls == writeDisjoint {
			return writeDisjoint, name
		}
		return cls, name
	case *ast.SliceExpr:
		return c.classify(e.X)
	}
	return writeLocal, ""
}

// isTaskIndex reports whether the expression is exactly the closure's
// task-index parameter. Derived indices (i+1, i%k, base+j) are not
// provably disjoint and deliberately do not qualify.
func (c *poolCheck) isTaskIndex(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || c.taskIdx == nil {
		return false
	}
	return c.p.Pkg.Info.Uses[id] == c.taskIdx
}

// checkWrite reports a non-disjoint write target. rhs, when present, lets
// s = append(s, v) surface as one append finding instead of two.
func (c *poolCheck) checkWrite(lhs, rhs ast.Expr) {
	cls, name := c.classify(lhs)
	switch cls {
	case writeLocal, writeDisjoint:
		return
	case writeSharedMap:
		c.p.Report(lhs, "map write to captured %s inside an exec.%s task races across workers; maps are never index-disjoint — give each task its own map or intern into a slice indexed by task", name, c.api)
		return
	}
	// Shared. An append assigned back to the same captured slice is the
	// append bug; report it as such, once.
	if rhs != nil {
		if ap, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && builtinName(c.p.Pkg.Info, ap) == "append" && len(ap.Args) > 0 {
			if apCls, apName := c.classify(ap.Args[0]); apCls == writeShared && apName == name {
				c.covered[ap] = true
				c.p.Report(lhs, "append to captured slice %s inside an exec.%s task mutates shared backing storage and length; preallocate and write out[i], or return a value per task", name, c.api)
				return
			}
		}
	}
	if _, isStar := ast.Unparen(lhs).(*ast.StarExpr); isStar {
		c.p.Report(lhs, "write through captured pointer %s inside an exec.%s task is not task-disjoint; tasks run concurrently — write out[i] with i the task index, or return a value", name, c.api)
		return
	}
	c.p.Report(lhs, "write to captured %s inside an exec.%s task is not task-disjoint; tasks run concurrently — write out[i] with i the task index, or return a value", name, c.api)
}

// checkCall reports appends into captured backing storage that are not
// assigned back (covered above) and is the hook for the rand check on
// call receivers.
func (c *poolCheck) checkCall(call *ast.CallExpr) {
	if builtinName(c.p.Pkg.Info, call) == "append" && !c.covered[call] && len(call.Args) > 0 {
		if cls, name := c.classify(call.Args[0]); cls == writeShared {
			c.p.Report(call, "append to captured slice %s inside an exec.%s task mutates shared backing storage; preallocate and write out[i], or return a value per task", name, c.api)
		}
	}
}

// checkRandUse reports any use of a captured math/rand generator: every
// draw advances the shared stream, so even read-shaped uses are writes,
// and worker interleaving makes the draw sequence nondeterministic on top
// of the race.
func (c *poolCheck) checkRandUse(id *ast.Ident) {
	o := c.p.Pkg.Info.Uses[id]
	if o == nil || !c.captured(o) || c.reportedRNG[o] || !isRandGenType(o.Type()) {
		return
	}
	c.reportedRNG[o] = true
	c.p.Report(id, "captured %s %s shares one RNG stream across concurrent exec.%s tasks; derive a per-task stream with exec.RNG(base, i) or exec.DomainRNG", o.Type(), id.Name, c.api)
}

// isRandGenType reports whether t is a math/rand or math/rand/v2
// generator or source (possibly behind a pointer).
func isRandGenType(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	switch randType(t) {
	case "Rand", "Source", "Source64", "PCG", "ChaCha8", "Zipf", "ExpFloat64":
		return true
	}
	return false
}
