package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// hotpathMarker is the annotation that opts a function into the
// zero-allocation contract. It goes in the function's doc comment:
//
//	//lint:hotpath
//	func (e *Engine) Run() error { ... }
//
// The contract is transitive: everything the function statically calls
// within the module is checked too, because an allocation two frames down
// is still an allocation per step. The walk stops at dynamic calls
// (function values, interface methods) and at the standard library.
const hotpathMarker = "//lint:hotpath"

// hotallocAnalyzer enforces zero allocation in //lint:hotpath functions
// and their static in-module callees. It flags the constructs that make
// the Go compiler allocate: slice/map composite literals, &T{...},
// make/new, append into a slice that is not a preallocated scratch
// buffer, closures that capture variables, string↔[]byte conversions,
// interface boxing at call sites (fmt.* categorically), and map writes.
// The fix is gostata-style: hang scratch buffers off the receiver, reuse
// them with x = x[:0], and intern map keys into slice indices. Amortized
// allocations (e.g. a doubling resize) are annotated //lint:allow
// hotalloc with the amortization argument as the reason, and every fixed
// loop is pinned by an env-gated testing.AllocsPerRun == 0 test.
func hotallocAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "hotalloc",
		Doc:  "forbid allocation-inducing constructs in //lint:hotpath functions and their static callees",
		Run: func(p *Pass) {
			for fn, root := range p.hot {
				if site := p.decls[fn]; site.Pkg == p.Pkg { // else the declaring package's pass reports it
					checkHotBody(p, site.Decl, hotHow(fn, root))
				}
			}
		},
	}
}

// hotHow says how fn entered the hot set, as the tail of a finding.
func hotHow(fn, root *types.Func) string {
	if root == fn {
		return "in //lint:hotpath " + fn.Name()
	}
	return "in " + fn.Name() + ", statically reachable from //lint:hotpath " + root.Name()
}

// isHotMarked reports whether the declaration's doc comment carries the
// //lint:hotpath marker.
func isHotMarked(fd *ast.FuncDecl) bool { return hasMarker(hotpathMarker, fd.Doc) }

// hotSet maps every function in the hot set to the marked root it is
// reachable from (itself, if directly marked). Seeds are processed in
// name order so a function reachable from two roots is always attributed
// to the same one — diagnostics must not depend on map iteration.
func hotSet(decls map[*types.Func]declSite) map[*types.Func]*types.Func {
	var seeds []*types.Func
	for fn, site := range decls {
		if isHotMarked(site.Decl) {
			seeds = append(seeds, fn)
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i].FullName() < seeds[j].FullName() })

	roots := map[*types.Func]*types.Func{}
	var queue []*types.Func
	for _, fn := range seeds {
		roots[fn] = fn
		queue = append(queue, fn)
	}
	var scratch []*types.Func
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		scratch = staticCallees(decls[fn], scratch[:0])
		for _, callee := range scratch {
			if _, declared := decls[callee]; !declared {
				continue // stdlib or bodiless: the walk stops here
			}
			if _, seen := roots[callee]; seen {
				continue
			}
			roots[callee] = roots[fn]
			queue = append(queue, callee)
		}
	}
	return roots
}

// acceptedAppendDsts collects the objects that count as preallocated
// append destinations inside fd: the receiver, parameters, named results,
// and locals assigned from an accepted expression (a re-slice, a field, an
// element, or an append chain rooted at one). Appending into any of these
// reuses caller- or receiver-owned backing storage; appending into a fresh
// local grows a new slice every call.
func acceptedAppendDsts(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	accepted := map[types.Object]bool{}
	for _, fl := range []*ast.FieldList{fd.Recv, fd.Type.Params, fd.Type.Results} {
		if fl == nil {
			continue
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if o := info.Defs[name]; o != nil {
					accepted[o] = true
				}
			}
		}
	}
	var acceptedExpr func(e ast.Expr) bool
	acceptedExpr = func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			return true // field access: receiver-owned scratch by contract
		case *ast.SliceExpr:
			return true // re-slice reuses existing backing storage
		case *ast.IndexExpr:
			return true // element of existing storage
		case *ast.Ident:
			return accepted[info.Uses[e]]
		case *ast.CallExpr:
			if builtinName(info, e) == "append" && len(e.Args) > 0 {
				return acceptedExpr(e.Args[0])
			}
		}
		return false
	}
	// Forward pass: a local becomes accepted at its (re)assignment from an
	// accepted expression. Syntactic order matches evaluation order for
	// the straight-line scratch-setup code this models.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || !acceptedExpr(as.Rhs[i]) {
				continue
			}
			if o := info.Defs[id]; o != nil {
				accepted[o] = true
			}
			if o := info.Uses[id]; o != nil {
				accepted[o] = true
			}
		}
		return true
	})
	return accepted
}

// checkHotBody walks one hot function's body and reports every
// allocation-inducing construct, each message suffixed with how the
// function entered the hot set.
func checkHotBody(p *Pass, fd *ast.FuncDecl, how string) {
	info := p.Pkg.Info
	accepted := acceptedAppendDsts(info, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				p.Report(n, "slice literal allocates %s; hoist it to a scratch field and reuse with x = x[:0]", how)
			case *types.Map:
				p.Report(n, "map literal allocates %s; build it once at construction time", how)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					p.Report(n, "&composite literal escapes to the heap %s; reuse a scratch value on the receiver", how)
				}
			}
		case *ast.FuncLit:
			if v := capturedVar(info, n, fd); v != nil {
				p.Report(n, "closure captures %s and allocates %s; pass state explicitly or hoist the closure", v.Name(), how)
			}
		case *ast.IncDecStmt:
			reportMapWrite(p, n.X, how)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				reportMapWrite(p, lhs, how)
			}
		case *ast.CallExpr:
			checkHotCall(p, n, accepted, how)
		}
		return true
	})
}

// reportMapWrite flags an assignment target that writes through a map:
// map inserts rehash and allocate, and steady-state loops should intern
// keys into slice indices instead.
func reportMapWrite(p *Pass, lhs ast.Expr, how string) {
	ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return
	}
	if isMap(p.TypeOf(ix.X)) {
		p.Report(lhs, "map write %s; maps rehash and allocate on insert — intern keys into slice indices", how)
	}
}

// checkHotCall handles the call-shaped allocation sources: make/new,
// append into a fresh slice, string↔[]byte conversions, fmt.*, and
// interface boxing of concrete arguments.
func checkHotCall(p *Pass, call *ast.CallExpr, accepted map[types.Object]bool, how string) {
	info := p.Pkg.Info
	if b := builtinName(info, call); b != "" {
		switch b {
		case "make":
			p.Report(call, "make allocates %s; preallocate at construction time and reuse", how)
		case "new":
			p.Report(call, "new allocates %s; reuse a scratch value on the receiver", how)
		case "append":
			if len(call.Args) > 0 && !appendDstAccepted(info, call.Args[0], accepted) {
				p.Report(call, "append into a fresh slice grows per call %s; append into preallocated scratch (x = x[:0]) instead", how)
			}
		}
		return
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		reportConversion(p, call, tv.Type, info.TypeOf(call.Args[0]), how)
		return
	}
	fn := calledFunc(info, call)
	if fn == nil {
		return
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" {
		p.Report(call, "fmt.%s formats through interfaces and allocates %s; hot paths must not format", fn.Name(), how)
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding an existing slice packs nothing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isTypeParam := pt.(*types.TypeParam); isTypeParam {
			continue // generic instantiation, not interface boxing
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		p.Report(arg, "passing %s as interface %s boxes and may allocate %s", at, pt, how)
	}
}

// appendDstAccepted reports whether an append destination expression
// reuses existing backing storage.
func appendDstAccepted(info *types.Info, dst ast.Expr, accepted map[types.Object]bool) bool {
	switch dst := ast.Unparen(dst).(type) {
	case *ast.SelectorExpr, *ast.SliceExpr, *ast.IndexExpr:
		return true
	case *ast.Ident:
		return accepted[info.Uses[dst]]
	}
	return false
}

// reportConversion flags string↔[]byte (and []rune) conversions, which
// copy their operand through a fresh allocation.
func reportConversion(p *Pass, call *ast.CallExpr, to, from types.Type, how string) {
	if from == nil {
		return
	}
	if isStringish(to) && isByteOrRuneSlice(from) || isByteOrRuneSlice(to) && isStringish(from) {
		p.Report(call, "%s(%s) conversion copies and allocates %s; keep one representation through the loop", to, from, how)
	}
}

func isStringish(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}

// capturedVar returns a variable the literal captures from its enclosing
// function, or nil. Non-capturing literals compile to plain functions and
// cost nothing; a capture forces a heap-allocated closure object.
func capturedVar(info *types.Info, lit *ast.FuncLit, outer *ast.FuncDecl) *types.Var {
	var captured *types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() < outer.Pos() || v.Pos() > outer.End() {
			return true // package-level or foreign: no closure cell
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // the literal's own declaration
		}
		captured = v
		return false
	})
	return captured
}
