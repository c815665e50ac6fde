package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// scratchsafeAnalyzer enforces the ownership half of the zero-allocation
// contract: memory backed by a //lint:scratch field never escapes its
// owner. The zero-alloc refactors hung reusable buffers off receivers in
// every hot kernel; the next invocation of any of those kernels rewrites
// the buffers wholesale, so a caller that retained an alias reads
// garbage — deterministically wrong garbage, which the CSV diff jobs can
// only catch when the corrupted value reaches an output.
//
// The analyzer checks every function in the //lint:hotpath set (the same
// transitive static call-graph walk hotalloc uses, so the two analyzers
// agree on reachability) plus every method of a type carrying tagged
// fields, directly or through a field that embeds or holds a carrier
// (a pooled builder embedding its scratch struct reaches the tagged
// fields as promoted fields), and flags the escape channels:
//
//   - returning a scratch field, a re-slice of one, or a local aliasing
//     one (including append chains rooted at scratch);
//   - storing scratch into a package-level variable or into a struct that
//     is not the receiver;
//   - assigning scratch to a named result;
//   - closures that capture scratch and escape the call (returned or
//     stored), goroutines that capture scratch, and channel sends of
//     scratch.
//
// Aliases are tracked through locals with a forward taint pass: x :=
// s.buf[:0] makes x scratch-backed, and so is everything re-sliced,
// indexed (when the element itself is reference-like), or appended from
// it. Rehoming scratch onto the receiver (s.buf = append(s.buf, v),
// q.buckets[b] = ...) is the idiom the contract encourages and is always
// allowed, as is passing scratch as a plain call argument — callees are
// trusted not to retain arguments; the analyzer polices the channels a
// caller can actually observe.
func scratchsafeAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "scratchsafe",
		Doc:  "forbid //lint:scratch-backed memory from escaping its owner in hot kernels and scratch-owning methods",
		Run: func(p *Pass) {
			// Deterministic order: findings are globally sorted by position,
			// but walking in name order keeps any future tie-breaks stable.
			var fns []*types.Func
			for fn, site := range p.decls {
				if site.Pkg == p.Pkg { // else the declaring package's pass reports it
					fns = append(fns, fn)
				}
			}
			sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })
			for _, fn := range fns {
				site := p.decls[fn]
				var how string
				if root, hot := p.hot[fn]; hot {
					how = hotHow(fn, root)
				} else if tn := receiverTypeName(site.Pkg.Info, site.Decl); tn != nil && p.scratch.owners[tn] {
					how = "in " + fn.Name() + ", a method of scratch-carrying " + tn.Name()
				} else {
					continue
				}
				(&scratchCheck{p: p, info: site.Pkg.Info, fd: site.Decl, how: how,
					tainted: map[types.Object]*types.Var{},
					results: map[types.Object]bool{},
				}).check()
			}
		},
	}
}

// scratchCheck is one function's escape walk.
type scratchCheck struct {
	p    *Pass
	info *types.Info
	fd   *ast.FuncDecl
	how  string
	// tainted maps a local variable to the scratch field it aliases.
	tainted map[types.Object]*types.Var
	// results holds the named result objects — assigning scratch to one
	// escapes exactly like returning it.
	results map[types.Object]bool
}

func (c *scratchCheck) check() {
	if c.fd.Type.Results != nil {
		for _, f := range c.fd.Type.Results.List {
			for _, name := range f.Names {
				if o := c.info.Defs[name]; o != nil {
					c.results[o] = true
				}
			}
		}
	}
	// Forward taint pass: a local aliases scratch from its (re)assignment
	// onward. Syntactic order matches evaluation order for the
	// straight-line scratch-setup code this models (same approximation as
	// hotalloc's accepted-append pass).
	ast.Inspect(c.fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true // multi-value call results are fresh memory
			}
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				root := c.scratchRoot(n.Rhs[i])
				if root == nil {
					continue
				}
				if o := c.info.Defs[id]; o != nil && refLike(o.Type()) {
					c.tainted[o] = root
				}
				if o := c.info.Uses[id]; o != nil && refLike(o.Type()) && !c.results[o] {
					c.tainted[o] = root
				}
			}
		case *ast.RangeStmt:
			root := c.scratchRoot(n.X)
			if root == nil || n.Value == nil {
				return true
			}
			if id, ok := ast.Unparen(n.Value).(*ast.Ident); ok {
				if o := c.info.Defs[id]; o != nil && refLike(o.Type()) {
					c.tainted[o] = root
				}
			}
		}
		return true
	})
	ast.Inspect(c.fd.Body, c.sinkWalk)
}

// sinkWalk reports every statement that moves scratch-backed memory out
// of the owner's reach.
func (c *scratchCheck) sinkWalk(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			root := c.scratchRoot(r)
			if root == nil {
				continue
			}
			if _, isLit := ast.Unparen(r).(*ast.FuncLit); isLit {
				c.p.Report(r, "returned closure captures scratch field %s %s; it can run after the next invocation overwrites the buffer", root.Name(), c.how)
				continue
			}
			c.p.Report(r, "returns memory aliasing scratch field %s %s; the owner's next call overwrites it — copy into caller-owned storage or let the caller read the field", root.Name(), c.how)
		}
	case *ast.AssignStmt:
		if len(n.Lhs) != len(n.Rhs) {
			return true
		}
		for i, lhs := range n.Lhs {
			root := c.scratchRoot(n.Rhs[i])
			if root == nil {
				continue
			}
			c.checkStore(lhs, n.Rhs[i], root)
		}
	case *ast.GoStmt:
		if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
			if root := c.capturedScratch(lit); root != nil {
				c.p.Report(lit, "goroutine captures scratch field %s %s; it races with the owner's next invocation", root.Name(), c.how)
			}
		}
		for _, arg := range n.Call.Args {
			if root := c.scratchRoot(arg); root != nil {
				c.p.Report(arg, "goroutine receives scratch field %s %s; it races with the owner's next invocation", root.Name(), c.how)
			}
		}
	case *ast.SendStmt:
		if root := c.scratchRoot(n.Value); root != nil {
			c.p.Report(n.Value, "sends memory aliasing scratch field %s into a channel %s; the receiver outlives the call — send a copy", root.Name(), c.how)
		}
	}
	return true
}

// checkStore classifies one assignment of scratch-rooted memory by where
// it lands. Rehoming onto the receiver (or into other scratch) is the
// contract's idiom; everything else leaks.
func (c *scratchCheck) checkStore(lhs, rhs ast.Expr, root *types.Var) {
	if _, isLit := ast.Unparen(rhs).(*ast.FuncLit); isLit {
		// A scratch-capturing closure assigned to a local only becomes an
		// escape if the local later returns or stores; the taint pass
		// carries it there. Direct stores to globals/fields fall through.
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if o := c.objOf(id); o != nil && !c.results[o] && !isPackageLevel(o) {
				return
			}
		}
	}
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		o := c.objOf(lhs)
		if o == nil || lhs.Name == "_" {
			return
		}
		switch {
		case c.results[o]:
			c.p.Report(lhs, "assigns memory aliasing scratch field %s to result %s %s; the caller retains it past the next invocation", root.Name(), lhs.Name, c.how)
		case isPackageLevel(o):
			c.p.Report(lhs, "stores memory aliasing scratch field %s into package-level %s %s; a global alias outlives every invocation", root.Name(), lhs.Name, c.how)
		}
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		base, baseIdent := c.storeBase(lhs.(ast.Expr))
		if base == storeReceiver || base == storeScratch {
			return // rehoming onto the owner: the blessed idiom
		}
		where := "a non-receiver struct"
		if base == storeGlobal {
			where = "package-level state"
		} else if _, isStar := lhs.(*ast.StarExpr); isStar {
			where = "a pointer the owner does not control"
		}
		name := ""
		if baseIdent != "" {
			name = " (" + baseIdent + ")"
		}
		c.p.Report(lhs.(ast.Expr), "stores memory aliasing scratch field %s into %s%s %s; scratch may only be rehomed onto its receiver", root.Name(), where, name, c.how)
	}
}

type storeBaseKind int

const (
	storeReceiver storeBaseKind = iota
	storeScratch
	storeGlobal
	storeOther
)

// storeBase resolves where a selector/index/deref store target is rooted.
func (c *scratchCheck) storeBase(e ast.Expr) (storeBaseKind, string) {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if v := c.scratchField(t); v != nil {
				return storeScratch, v.Name()
			}
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.Ident:
			o := c.objOf(t)
			if o == nil {
				return storeOther, t.Name
			}
			if recv := receiverVar(c.info, c.fd); recv != nil && o == recv {
				return storeReceiver, t.Name
			}
			if _, ok := c.tainted[o]; ok {
				return storeScratch, t.Name
			}
			if isPackageLevel(o) {
				return storeGlobal, t.Name
			}
			return storeOther, t.Name
		default:
			return storeOther, ""
		}
	}
}

// scratchField returns the //lint:scratch field a selector names, or nil.
func (c *scratchCheck) scratchField(sel *ast.SelectorExpr) *types.Var {
	if v, ok := c.info.Uses[sel.Sel].(*types.Var); ok && c.p.scratch.fields[v] {
		return v
	}
	return nil
}

// scratchRoot reports the scratch field an expression's memory aliases,
// or nil. Aliasing flows through re-slices, reference-typed element and
// field accesses, address-taking, derefs, append chains, tainted locals,
// and closures that capture scratch.
func (c *scratchCheck) scratchRoot(e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if v := c.scratchField(e); v != nil {
			return v
		}
		if t := c.info.TypeOf(e); t != nil && refLike(t) {
			return c.scratchRoot(e.X)
		}
	case *ast.SliceExpr:
		return c.scratchRoot(e.X)
	case *ast.IndexExpr:
		if t := c.info.TypeOf(e); t != nil && refLike(t) {
			return c.scratchRoot(e.X)
		}
	case *ast.StarExpr:
		return c.scratchRoot(e.X)
	case *ast.UnaryExpr:
		return c.scratchRoot(e.X)
	case *ast.Ident:
		if o := c.objOf(e); o != nil {
			return c.tainted[o]
		}
	case *ast.CallExpr:
		if builtinName(c.info, e) == "append" && len(e.Args) > 0 {
			return c.scratchRoot(e.Args[0])
		}
	case *ast.FuncLit:
		return c.capturedScratch(e)
	}
	return nil
}

// capturedScratch reports a scratch field the literal's body references —
// directly or through a tainted local captured from the enclosing
// function — or nil.
func (c *scratchCheck) capturedScratch(lit *ast.FuncLit) *types.Var {
	var found *types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			found = c.scratchField(n)
		case *ast.Ident:
			if o := c.info.Uses[n]; o != nil {
				if o.Pos() >= lit.Pos() && o.Pos() <= lit.End() {
					return true // the literal's own declaration
				}
				if root, ok := c.tainted[o]; ok {
					found = root
				}
			}
		}
		return true
	})
	return found
}

func (c *scratchCheck) objOf(id *ast.Ident) types.Object {
	if o := c.info.Uses[id]; o != nil {
		return o
	}
	return c.info.Defs[id]
}

// isPackageLevel reports whether the object is declared at package scope.
func isPackageLevel(o types.Object) bool {
	return o.Pkg() != nil && o.Parent() == o.Pkg().Scope()
}

// refLike reports whether values of the type share backing storage when
// copied — the types scratch aliasing can flow through. Strings are
// immutable and structs are copied by value, so neither propagates
// (a struct holding a scratch slice is rare enough that the store sinks
// catch the interesting cases directly).
func refLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer, *types.Chan, *types.Signature:
		return true
	}
	return false
}
