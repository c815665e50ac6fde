package lint

import (
	"go/ast"
	"go/types"
)

// errdropAnalyzer is an errcheck-lite scoped to the CSV-emission surface:
// a discarded error from an io.Writer-shaped Write, a Flush, or a Close
// means an experiment can silently truncate its output and still exit 0 —
// the diff job then blames determinism for what was a full disk.
// *bytes.Buffer and *strings.Builder are exempt (their writers are
// documented never to fail); anything else needs a check or a justified
// //lint:allow errdrop.
//
// The same treatment covers the discrete-event scheduler surface: a
// discarded error from a Schedule/After-shaped method means an event
// silently never fires — the run still completes and emits a plausible
// CSV, minus a whole tick's worth of work.
func errdropAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "errdrop",
		Doc:  "flag discarded errors from Write/Flush/Close on writers and Schedule/After on schedulers",
	}
	a.Run = func(p *Pass) {
		report := func(call *ast.CallExpr, deferred bool) {
			fn, recvT := calledMethod(p, call)
			if fn == nil {
				return
			}
			if isSchedulerErrMethod(fn) {
				p.Report(call, "error from %s is discarded; a failed schedule means the event silently never fires (check it, or panic on a provably unreachable path)", fn.Name())
				return
			}
			if !isWriterErrMethod(fn, recvT) {
				return
			}
			if deferred {
				p.Report(call, "deferred %s discards its error; close/flush explicitly on the success path so write failures surface", fn.Name())
				return
			}
			p.Report(call, "error from %s is discarded; a failed write must fail the run (assign and check it)", fn.Name())
		}
		p.inspect(func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					report(call, false)
				}
			case *ast.DeferStmt:
				report(n.Call, true)
			case *ast.GoStmt:
				report(n.Call, false)
			}
			return true
		})
	}
	return a
}

// calledMethod resolves a call to (method, receiver type at the call
// site). The call-site receiver matters: io.WriteCloser's Close is
// declared on the embedded io.Closer, and judging writability from the
// declaration would miss every composed writer interface.
func calledMethod(p *Pass, call *ast.CallExpr) (*types.Func, types.Type) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	selInfo, ok := p.Pkg.Info.Selections[sel]
	if !ok {
		return nil, nil // qualified package function, not a method call
	}
	fn, ok := selInfo.Obj().(*types.Func)
	if !ok {
		return nil, nil
	}
	return fn, selInfo.Recv()
}

// isWriterErrMethod reports whether fn is a method whose dropped error
// loses written data: Write([]byte) (int, error) — the io.Writer shape —
// or Flush/Close returning error, on a receiver that can write.
func isWriterErrMethod(fn *types.Func, recvT types.Type) bool {
	if recvT == nil {
		return false
	}
	switch qualifiedName(deref(recvT)) {
	case "bytes.Buffer", "strings.Builder":
		return false // the stdlib writers documented never to fail
	}
	sig := fn.Type().(*types.Signature)
	switch fn.Name() {
	case "Write":
		return isIOWriterShape(sig)
	case "Flush":
		return returnsOnlyError(sig)
	case "Close":
		// Closing a pure reader is allowed to fail silently; only types
		// that can also write hold buffered data a dropped Close can lose.
		return returnsOnlyError(sig) && hasWriteMethod(recvT)
	}
	return false
}

// isIOWriterShape matches the exact io.Writer method signature.
func isIOWriterShape(sig *types.Signature) bool {
	if sig.Params().Len() != 1 || sig.Results().Len() != 2 {
		return false
	}
	slice, ok := sig.Params().At(0).Type().(*types.Slice)
	if !ok || !isBasic(slice.Elem(), types.Byte) {
		return false
	}
	return isBasic(sig.Results().At(0).Type(), types.Int) && isErrorType(sig.Results().At(1).Type())
}

// isSchedulerErrMethod matches methods named Schedule or After taking at
// least one parameter and returning exactly one error — the shape of
// sim.Engine's event scheduling. Unlike the writer rules it keys on the
// signature alone: any scheduler lookalike that can refuse an event must
// not have that refusal ignored.
func isSchedulerErrMethod(fn *types.Func) bool {
	switch fn.Name() {
	case "Schedule", "After":
	default:
		return false
	}
	sig := fn.Type().(*types.Signature)
	return sig.Params().Len() > 0 && sig.Results().Len() == 1 && isErrorType(sig.Results().At(0).Type())
}

func returnsOnlyError(sig *types.Signature) bool {
	return sig.Params().Len() == 0 && sig.Results().Len() == 1 && isErrorType(sig.Results().At(0).Type())
}

// hasWriteMethod reports whether t's method set includes an
// io.Writer-shaped Write.
func hasWriteMethod(t types.Type) bool {
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		fn, ok := ms.At(i).Obj().(*types.Func)
		if !ok || fn.Name() != "Write" {
			continue
		}
		if isIOWriterShape(fn.Type().(*types.Signature)) {
			return true
		}
	}
	return false
}

func isBasic(t types.Type, kind types.BasicKind) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == kind
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
