package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BorrowCheckAnalyzer enforces the borrowed-view contract: the return
// values of functions annotated //gamelens:borrowed are views of
// callee-owned storage (scratch buffers, arena slots) valid only until the
// next call — callers may re-lend them down the stack but must not store
// them anywhere that outlives the call. Copy to retain; a deliberate
// ownership transfer is escaped //gamelens:retain-ok.
var BorrowCheckAnalyzer = &Analyzer{
	Name: "borrowcheck",
	Doc:  "forbid storing //gamelens:borrowed return values into outliving locations",
	Run:  runBorrowCheck,
}

func runBorrowCheck(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkBorrowBody(pass, fd.Body)
			}
		}
	}
}

// checkBorrowBody flags stores of borrowed values to outliving locations
// within one function body.
func checkBorrowBody(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	borrowed := map[types.Object]bool{}

	// Pass 1: find locals bound to the result of a borrowed call, in any
	// x := f() / x = f() / var x = f() form. Flow-insensitive: once a name
	// has held a borrowed view in this function, stores of it are suspect.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && len(n.Lhs) >= 1 {
				if borrowedCall(pass, n.Rhs[0]) {
					for _, lhs := range n.Lhs {
						if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
							if obj := objOf(info, id); obj != nil {
								borrowed[obj] = true
							}
						}
					}
				}
			}
		case *ast.ValueSpec:
			if len(n.Values) == 1 && borrowedCall(pass, n.Values[0]) {
				for _, name := range n.Names {
					if obj := info.Defs[name]; obj != nil {
						borrowed[obj] = true
					}
				}
			}
		}
		return true
	})

	isBorrowedExpr := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if id, ok := e.(*ast.Ident); ok {
			return borrowed[objOf(info, id)]
		}
		return borrowedCall(pass, e)
	}

	report := func(pos token.Pos, what string) {
		if pass.Escaped(pos, "retain-ok") {
			return
		}
		pass.Reportf(pos, "borrowed view stored to %s: the value is only valid until the producer's next call — copy to retain, or mark the statement //gamelens:retain-ok for a documented ownership transfer", what)
	}

	// Pass 2: flag outliving stores.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				rhs := n.Rhs[0]
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				dest, outlives := outlivingDest(pass, lhs)
				if !outlives {
					continue
				}
				if isBorrowedExpr(rhs) {
					report(n.Pos(), dest)
					continue
				}
				// x.field = append(x.field, borrowed) — the append smuggles
				// the view into the outliving slice. A spread of a
				// value-element slice (append(dst, view...)) copies the
				// elements and is the sanctioned clone idiom, so only
				// reference-element appends are findings.
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isAppendCall(info, call) {
					for _, arg := range call.Args[1:] {
						if !isBorrowedExpr(arg) {
							continue
						}
						if call.Ellipsis.IsValid() && !spreadsRefElems(info, arg) {
							continue
						}
						report(n.Pos(), dest+" via append")
						break
					}
				}
			}
		case *ast.SendStmt:
			if isBorrowedExpr(n.Value) {
				report(n.Pos(), "a channel")
			}
		}
		return true
	})
}

// borrowedCall reports whether e is a call whose callee is annotated
// //gamelens:borrowed (in this package or any other — the registry spans
// the module).
func borrowedCall(pass *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeOf(pass.Pkg.Info, call)
	if fn == nil {
		return false
	}
	key := funcKey(fn)
	return key != "" && pass.Reg.FuncHas(key, "borrowed")
}

// outlivingDest classifies an assignment target that outlives the current
// call: struct fields, map/slice elements, dereferenced pointers, and
// package-level variables.
func outlivingDest(pass *Pass, lhs ast.Expr) (string, bool) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return "field " + lhs.Sel.Name, true
	case *ast.IndexExpr:
		return "a map/slice element", true
	case *ast.StarExpr:
		return "a dereferenced pointer", true
	case *ast.Ident:
		if obj := objOf(pass.Pkg.Info, lhs); obj != nil {
			if v, ok := obj.(*types.Var); ok && v.Parent() == pass.Pkg.Types.Scope() {
				return "package variable " + lhs.Name, true
			}
		}
	}
	return "", false
}

// spreadsRefElems reports whether spreading e (a slice) copies reference
// elements — pointers, slices, maps, etc. — which would keep the borrowed
// view's aliases alive in the destination.
func spreadsRefElems(info *types.Info, e ast.Expr) bool {
	t := info.Types[e].Type
	if t == nil {
		return true // unknown: stay conservative
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return true
	}
	switch sl.Elem().Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

func isAppendCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append" && len(call.Args) >= 2
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}
