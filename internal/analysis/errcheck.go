package analysis

import (
	"go/ast"
	"go/types"
)

// ErrCheckAnalyzer flags call statements that silently discard an error
// result. A swallowed error on a frame-write or metrics path can serve a
// truncated stream or report success for a failed write.
//
// Deliberate discards stay available and visible: assign to blank
// (`_ = f()` / `_, _ = f()`) — an explicit statement of intent the
// analyzer treats as checked. Exempt by construction:
//
//   - deferred and go'd calls (deferred Close on a read path is idiomatic;
//     a deferred call's error is unobservable anyway)
//   - fmt printing (best-effort human output)
//   - writers documented never to fail: strings.Builder, bytes.Buffer,
//     hash.Hash
//   - (*bufio.Writer) Write methods — their errors are deferred to Flush,
//     which is NOT exempt
var ErrCheckAnalyzer = &Analyzer{
	Name: "errcheck",
	Doc:  "flag expression statements that drop a returned error on the floor",
	Run:  runErrCheck,
}

func runErrCheck(p *Pass) error {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !returnsError(p.Info, call) || errCheckExempt(p, call) {
				return true
			}
			p.Reportf(call.Pos(), "error result of %s is discarded: check it, or assign to _ to discard deliberately", calleeString(call))
			return true
		})
	}
	return nil
}

// returnsError reports whether the call's last result is type error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return false // conversion or builtin
	}
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	named, ok := last.(interface{ Obj() *types.TypeName })
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

func errCheckExempt(p *Pass, call *ast.CallExpr) bool {
	if path, _, ok := pkgCall(p.Info, call); ok && path == "fmt" {
		return true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := p.Info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(interface{ Obj() *types.TypeName }); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			switch obj.Pkg().Path() + "." + obj.Name() {
			case "strings.Builder", "bytes.Buffer":
				return true
			case "bufio.Writer":
				return sel.Sel.Name != "Flush"
			}
		}
	}
	return implementsIface(p.Dep, p.Info.TypeOf(sel.X), "hash", "Hash")
}

// calleeString renders the called expression for the diagnostic.
func calleeString(call *ast.CallExpr) string {
	return exprString(call.Fun)
}
