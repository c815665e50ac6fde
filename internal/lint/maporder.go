package lint

import (
	"go/ast"
	"go/types"
)

// maporderAnalyzer flags the exact bug class the serial-vs-parallel CSV
// diff exists to catch: rows emitted in map iteration order. Two shapes
// are reported — writing output from inside a `range` over a map, and
// collecting map keys into a slice that is never passed to sort.* /
// slices.* afterwards in the same function. The blessed idiom (collect
// keys, sort, iterate the sorted slice) is untouched.
func maporderAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "maporder",
		Doc:  "flag output emitted in map iteration order and map-key collections that skip sorting",
	}
	a.Run = func(p *Pass) {
		for _, f := range p.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkFuncMapOrder(p, fd.Body)
			}
		}
	}
	return a
}

func checkFuncMapOrder(p *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if !isMap(p.TypeOf(rs.X)) {
			return true
		}
		iterVars := rangeVarObjects(p, rs)
		checkRangeBody(p, body, rs, iterVars)
		return true
	})
}

// rangeVarObjects collects the objects bound by a range statement's key
// and value variables.
func rangeVarObjects(p *Pass, rs *ast.RangeStmt) map[types.Object]bool {
	objs := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := p.ObjectOf(id); obj != nil {
				objs[obj] = true
			}
		}
	}
	return objs
}

// checkRangeBody looks inside one map-range body for emission calls and
// unsorted key collection.
func checkRangeBody(p *Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt, iterVars map[types.Object]bool) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if n != rs {
				return false // the nested range gets its own visit
			}
		case *ast.CallExpr:
			if isEmitCall(p, n) {
				p.Report(n, "output emitted inside `range` over a map runs in nondeterministic iteration order; collect the keys, sort them, then emit")
				return true
			}
		case *ast.AssignStmt:
			if tgt := appendTarget(p, n, iterVars); tgt != nil && !sortedAfter(p, fnBody, rs, tgt) {
				p.Report(n, "map keys collected into %q are never sorted in this function; call sort.* (or slices.Sort*) on it before the slice is emitted or returned", tgt.Name())
			}
		}
		return true
	})
}

// isEmitCall reports whether the call writes user-visible output: a
// fmt.Print*/Fprint* call or a Write*-family method (io.Writer, csv.Writer,
// strings.Builder, ...).
func isEmitCall(p *Pass, call *ast.CallExpr) bool {
	fn := calledFunc(p.Pkg.Info, call)
	if fn == nil {
		return false
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" && fn.Type().(*types.Signature).Recv() == nil {
		switch fn.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return true
		}
		return false
	}
	if fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune", "WriteAll":
		return true
	}
	return false
}

// appendTarget matches `s = append(s, ...)` where an argument mentions a
// range variable, returning s's object.
func appendTarget(p *Pass, as *ast.AssignStmt, iterVars map[types.Object]bool) types.Object {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	if builtinName(p.Pkg.Info, call) != "append" {
		return nil
	}
	mentions := false
	for _, arg := range call.Args[1:] {
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && iterVars[p.ObjectOf(id)] {
				mentions = true
			}
			return !mentions
		})
	}
	if !mentions {
		return nil
	}
	lhs, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	return p.ObjectOf(lhs)
}

// sortedAfter reports whether, after the range statement, the enclosing
// function passes the collected slice to any sort or slices function.
func sortedAfter(p *Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt, tgt types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		fn := calledFunc(p.Pkg.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if path := fn.Pkg().Path(); path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && p.ObjectOf(id) == tgt {
					found = true
				}
				return !found
			})
		}
		return true
	})
	return found
}
