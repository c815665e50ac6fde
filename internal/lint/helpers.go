package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// The type and call predicates several analyzers share.

// calledFunc resolves a call's callee to a *types.Func, or nil for
// conversions, builtins, and calls through function-typed variables.
func calledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.ObjectOf(fun)
	case *ast.SelectorExpr:
		obj = info.ObjectOf(fun.Sel)
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// builtinName names the builtin a call invokes (append, make, ...), or
// returns "" for every other call.
func builtinName(info *types.Info, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return b.Name()
		}
	}
	return ""
}

// constValue resolves an expression to its constant value, or nil.
func constValue(info *types.Info, e ast.Expr) constant.Value {
	return info.Types[e].Value
}

// deref strips one level of pointer from t.
func deref(t types.Type) types.Type {
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// typeName returns the object of a named type, or nil for any other type.
func typeName(t types.Type) *types.TypeName {
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// qualifiedName renders a named type declared in a package as
// "path.Name", and any other type as "".
func qualifiedName(t types.Type) string {
	if obj := typeName(t); obj != nil && obj.Pkg() != nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return ""
}

func isRandPkg(pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == "math/rand" || pkg.Path() == "math/rand/v2")
}

// randFunc names fn when it is a package-level math/rand (or v2)
// function, and returns "" otherwise (methods included).
func randFunc(fn *types.Func) string {
	if fn == nil || !isRandPkg(fn.Pkg()) || fn.Type().(*types.Signature).Recv() != nil {
		return ""
	}
	return fn.Name()
}

// randType names t when it is a named math/rand (or v2) type, and
// returns "" otherwise.
func randType(t types.Type) string {
	if obj := typeName(t); obj != nil && isRandPkg(obj.Pkg()) {
		return obj.Name()
	}
	return ""
}

// isMap reports whether t is a map type; a nil t is not.
func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// hasMarker reports whether a line of the comment groups starts with the
// marker (//lint:hotpath, //lint:scratch).
func hasMarker(marker string, groups ...*ast.CommentGroup) bool {
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if strings.HasPrefix(strings.TrimSpace(c.Text), marker) {
				return true
			}
		}
	}
	return false
}
