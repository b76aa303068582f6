package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// FrameProtoAnalyzer guards the wire contract: every byte on a connection
// is part of a wire frame — a type byte, a u32 length, the payload — so
// a relay can forward any session by header alone and every reader can
// bound every read from the header. Raw writes belong to internal/wire,
// the one package that knows the header; everything else writes frames
// through it, including the OT layer and the gateway.
//
// Methods on types that themselves implement net.Conn are exempt: conn
// middleware like counting or recording wrappers forwards bytes verbatim.
var FrameProtoAnalyzer = &Analyzer{
	Name: "frameproto",
	Doc:  "flag raw conn.Write outside internal/wire: wire bytes must go through the frame layer",
	Run:  runFrameProto,
}

var frameProtoAllowed = map[string]bool{"wire": true}

func runFrameProto(p *Pass) error {
	for _, seg := range strings.Split(p.Path, "/") {
		if frameProtoAllowed[seg] {
			return nil
		}
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if recvImplementsConn(p, fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Write" {
					return true
				}
				if s := p.Info.Selections[sel]; s == nil || s.Kind() != types.MethodVal {
					return true // a package function such as wire.Write, not a method
				}
				t := p.Info.TypeOf(sel.X)
				if t != nil && implementsIface(p.Dep, t, "net", "Conn") {
					p.Reportf(call.Pos(), "raw %s.Write bypasses the typed frame layer: bytes written outside internal/wire are not frames a relay can forward", exprString(sel.X))
				}
				return true
			})
		}
	}
	return nil
}

// recvImplementsConn reports whether fd is a method on a type that is
// itself a net.Conn (wrapping middleware forwards bytes verbatim).
func recvImplementsConn(p *Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	t := p.Info.TypeOf(fd.Recv.List[0].Type)
	return t != nil && implementsIface(p.Dep, t, "net", "Conn")
}
