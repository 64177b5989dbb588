package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags range loops over maps whose iteration order leaks into
// an ordering-sensitive result: the loop body appends to a slice that is
// never deterministically sorted afterwards, or selects a running
// min/max into an outer variable. Go randomizes map iteration per run,
// so such loops make eviction rankings, placement decisions, and
// rendered output differ between identically-seeded simulations — the
// exact reproducibility the benchmarks and the baseline oracle depend on.
//
// The accepted idioms are mechanical: collect-then-sort (append inside
// the loop, a sort.*/slices.* call on the same slice later in the
// enclosing block) stays silent, as do loops that only mutate or delete
// per-entry state (commutative effects). Min/max selection must be
// restructured as a sorted scan; a loop that is deterministic for a
// subtler reason carries a //lint:allow maporder annotation. The check
// is function-local and syntactic: a helper that sorts on the caller's
// behalf needs the annotation too.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "flag map-range loops whose iteration order can leak into results: " +
		"appends without a subsequent sort, or min/max selection into outer variables",
	Run: runMapOrder,
}

func runMapOrder(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			block, ok := n.(*ast.BlockStmt)
			if !ok {
				return true
			}
			for i, stmt := range block.List {
				rng, ok := stmt.(*ast.RangeStmt)
				if !ok || !isMapType(pass, rng.X) {
					continue
				}
				checkMapRange(pass, rng, block.List[i+1:])
			}
			return true
		})
	}
	return nil
}

// isMapType reports whether the ranged expression has map type.
func isMapType(pass *Pass, x ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(x)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRange inspects one map-range loop body and the statements that
// follow it in the same block.
func checkMapRange(pass *Pass, rng *ast.RangeStmt, after []ast.Stmt) {
	type appendSite struct {
		pos    token.Pos
		target types.Object
		text   string
	}
	var appends []appendSite

	inspectSkippingFuncLits(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if !isAppendCall(pass, rhs) || i >= len(n.Lhs) {
					continue
				}
				obj, text := exprTarget(pass, n.Lhs[i])
				if obj != nil && declaredWithin(obj, rng.Body) {
					continue // loop-local scratch, no escape
				}
				appends = append(appends, appendSite{pos: n.Pos(), target: obj, text: text})
			}
		case *ast.IfStmt:
			if !condCompares(n.Cond) {
				return true
			}
			inspectSkippingFuncLits(n.Body, func(m ast.Node) bool {
				asg, ok := m.(*ast.AssignStmt)
				if !ok || asg.Tok != token.ASSIGN {
					return true
				}
				for _, lhs := range asg.Lhs {
					obj, text := exprTarget(pass, lhs)
					if obj != nil && declaredWithin(obj, rng.Body) {
						continue
					}
					if text == "" && obj == nil {
						continue
					}
					pass.Reportf(asg.Pos(),
						"min/max selection of %s over map iteration order; iterate a sorted snapshot instead",
						text)
					return false
				}
				return true
			})
			return false // the if's body was handled; skip re-walking it
		}
		return true
	})

	for _, a := range appends {
		if sortedAfter(pass, after, a.target, a.text) {
			continue
		}
		pass.Reportf(a.pos,
			"%s is built from map iteration order and never sorted; sort it (sort./slices.) before it is consumed",
			a.text)
	}
}

// inspectSkippingFuncLits walks n without descending into function
// literals: a closure built inside the loop runs later, outside the
// loop's ordering context (and, for locksafepublish, outside the lock).
func inspectSkippingFuncLits(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		return fn(m)
	})
}

// isAppendCall reports whether e is a call to the append builtin.
func isAppendCall(pass *Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin && id.Name == "append"
}

// exprTarget resolves an lvalue (or argument) to its canonical object
// and display text.
func exprTarget(pass *Pass, e ast.Expr) (types.Object, string) {
	switch e := e.(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return nil, ""
		}
		obj := pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = pass.TypesInfo.Defs[e]
		}
		return obj, e.Name
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[e.Sel], types.ExprString(e)
	case *ast.ParenExpr:
		return exprTarget(pass, e.X)
	}
	return nil, types.ExprString(e)
}

// declaredWithin reports whether obj's declaration lies inside node.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}

// condCompares reports whether the condition contains an ordering
// comparison (<, >, <=, >=) — the signature of a running min/max.
func condCompares(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok {
			switch b.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ:
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// sortedAfter reports whether any statement after the loop calls a
// sort./slices. function with the appended slice among its arguments.
func sortedAfter(pass *Pass, after []ast.Stmt, target types.Object, text string) bool {
	for _, stmt := range after {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
				return true
			}
			for _, arg := range call.Args {
				obj, argText := exprTarget(pass, arg)
				if (target != nil && obj == target) || (text != "" && argText == text) {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}
