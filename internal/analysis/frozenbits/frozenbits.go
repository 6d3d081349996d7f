// Package frozenbits enforces the aliasing contract of the interned
// arenas: the slices returned by the belief arena's set accessor and the
// explore Interner's Vec accessor alias the arena's backing storage and
// are documented read-only. The arenas deduplicate by content — each
// keys its id map on the byte image of the stored words — so a single
// write through an escaped slice corrupts the interned value for every
// other holder of the same id and silently desynchronizes the id map
// from the data it indexes.
//
// Two mutation vectors are flagged:
//
//   - an element write straight through the accessor call,
//     ar.set(bid)[w] |= mask;
//   - an element write through a local variable bound to an accessor
//     result, cur := sv.ar.set(bid); … cur[w] = x — the escaped-alias
//     case. A variable later rebound to a non-accessor source is given
//     the benefit of the doubt and not tracked.
package frozenbits

import (
	"go/ast"
	"go/types"

	"fspnet/internal/analysis/framework"
)

// accessor names one read-only aliasing accessor method.
type accessor struct {
	pkg    string // package path of the receiver's named type
	recv   string // receiver type name
	method string
}

// Accessors are the protected methods. The belief arena's set is
// unexported, so only belief can call it; the Interner's Vec is
// exported, and both explore's passes and belief's context walk call it.
var Accessors = []accessor{
	{"fspnet/internal/game/belief", "arena", "set"},
	{"fspnet/internal/explore", "Interner", "Vec"},
}

// Analyzer is the frozenbits check.
var Analyzer = &framework.Analyzer{
	Name: "frozenbits",
	Doc:  "flags writes to interned belief/vector bitsets after they escape the arena",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil
}

// checkFunc flags arena-aliased writes within one function body.
// Tracking is per-function and flow-insensitive: a variable counts as
// arena-aliased if every value ever assigned to it in this body comes
// from an accessor call.
func checkFunc(pass *framework.Pass, body *ast.BlockStmt) {
	aliased := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, lhs := range assign.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.ObjectOf(id)
			if obj == nil {
				continue
			}
			if isAccessorCall(pass, assign.Rhs[i]) {
				if _, tainted := aliased[obj]; !tainted {
					aliased[obj] = true
				}
			} else {
				aliased[obj] = false // rebound elsewhere: benefit of the doubt
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkWrite(pass, aliased, lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(pass, aliased, n.X)
		}
		return true
	})
}

// checkWrite reports when the written location is an element of an
// arena-aliased slice.
func checkWrite(pass *framework.Pass, aliased map[types.Object]bool, lhs ast.Expr) {
	idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return
	}
	switch base := ast.Unparen(idx.X).(type) {
	case *ast.CallExpr:
		if isAccessorCall(pass, base) {
			pass.Reportf(lhs.Pos(),
				"write through an interned-bitset accessor slice, which is documented read-only; the arena deduplicates by content, so this corrupts every holder of the id")
		}
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[base]; obj != nil && aliased[obj] {
			pass.Reportf(lhs.Pos(),
				"write to %s, which aliases interned arena storage (documented read-only); copy the slice before modifying", base.Name)
		}
	}
}

// isAccessorCall reports whether expr is a call to one of the protected
// aliasing accessors.
func isAccessorCall(pass *framework.Pass, expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	for _, a := range Accessors {
		if named.Obj().Pkg().Path() == a.pkg && named.Obj().Name() == a.recv && fn.Name() == a.method {
			return true
		}
	}
	return false
}
