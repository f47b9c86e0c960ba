package lint

import (
	"fmt"
	"go/ast"
	"go/token"
)

// spanStartFuncs are the span-creating entry points of internal/trace. The
// check is name-based (this is a single-module tree linter): any selector
// call with one of these names is treated as starting a span.
var spanStartFuncs = map[string]bool{
	"StartSpan":   true,
	"StartRoot":   true,
	"StartRemote": true,
	"StartChild":  true,
}

// checkSpanFinish flags spans that are started and then leaked: the result
// of a Start* call that is dropped, assigned to the blank identifier, or
// bound to a variable with no v.Finish() call anywhere in the enclosing
// function. A span that escapes the function — returned, passed as a call
// argument, stored in a composite literal or another variable, sent on a
// channel, or address-taken — is assumed to be finished by its new owner.
// An unfinished span never reaches the recorder, so the leak silently
// drops trace data; //lint:allow spanfinish documents intentional cases.
func checkSpanFinish(f *file) []Diagnostic {
	// internal/trace owns span lifetimes: its constructors hand spans to
	// callers, and its tests exercise unfinished spans on purpose.
	if f.pkgDir == "internal/trace" {
		return nil
	}
	var diags []Diagnostic
	ast.Inspect(f.ast, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		default:
			return true
		}
		if body != nil {
			diags = append(diags, spanFinishInFunc(f, body)...)
		}
		return true
	})
	return diags
}

// spanFinishInFunc checks the Start* sites that lexically belong to this
// function body (nested function literals are analyzed as their own
// functions), while Finish/escape uses are accepted anywhere in the body,
// including inside nested literals such as `defer func() { sp.Finish() }()`.
func spanFinishInFunc(f *file, body *ast.BlockStmt) []Diagnostic {
	var diags []Diagnostic
	flag := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:     f.fset.Position(pos),
			Check:   "spanfinish",
			Message: fmt.Sprintf(format, args...),
		})
	}
	check := func(name string, ident *ast.Ident, fun string) {
		if ident.Name == "_" {
			flag(ident.Pos(), "span from %s is assigned to _ and can never be finished", fun)
			return
		}
		if !spanFinishedOrEscapes(body, ident.Name) {
			flag(ident.Pos(), "span %q from %s is never finished in this function (and does not escape); call %s.Finish() or annotate //lint:allow spanfinish", ident.Name, fun, ident.Name)
		}
	}
	walkOwnStmts(body, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if fun, ok := spanStartCall(st.X); ok {
				flag(st.Pos(), "result of %s is dropped; the span can never be finished", fun)
			}
		case *ast.AssignStmt:
			if len(st.Rhs) != 1 {
				return
			}
			fun, ok := spanStartCall(st.Rhs[0])
			if !ok {
				return
			}
			// Two results means the (ctx, span) form; the span is the
			// second value. One result is the span itself.
			idx := 0
			if len(st.Lhs) == 2 {
				idx = 1
			}
			if ident, ok := st.Lhs[idx].(*ast.Ident); ok {
				check(fun, ident, fun)
			}
		case *ast.ValueSpec:
			if len(st.Values) != 1 {
				return
			}
			fun, ok := spanStartCall(st.Values[0])
			if !ok {
				return
			}
			idx := 0
			if len(st.Names) == 2 {
				idx = 1
			}
			if idx < len(st.Names) {
				check(fun, st.Names[idx], fun)
			}
		}
	})
	return diags
}

// walkOwnStmts visits the nodes of body without descending into nested
// function literals.
func walkOwnStmts(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// spanStartCall reports whether e is a call of one of the span-starting
// selector methods, returning the rendered callee name.
func spanStartCall(e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !spanStartFuncs[sel.Sel.Name] {
		return "", false
	}
	return sel.Sel.Name, true
}

// spanFinishedOrEscapes reports whether the named span variable has a
// name.Finish() call anywhere in body, or escapes the function: returned,
// passed as a call argument, re-assigned, stored in a composite literal,
// sent on a channel, or address-taken. Matching is by identifier name (a
// shadowing redeclaration would fool it; the escape hatch covers such
// contortions).
func spanFinishedOrEscapes(body *ast.BlockStmt, name string) bool {
	isName := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == name
	}
	done := false
	ast.Inspect(body, func(n ast.Node) bool {
		if done {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Finish" && isName(sel.X) {
				done = true
				return false
			}
			for _, a := range x.Args {
				if isName(a) {
					done = true
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if isName(r) {
					done = true
					return false
				}
			}
		case *ast.AssignStmt:
			for _, r := range x.Rhs {
				if isName(r) {
					done = true
					return false
				}
			}
		case *ast.CompositeLit:
			for _, e := range x.Elts {
				v := e
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if isName(v) {
					done = true
					return false
				}
			}
		case *ast.SendStmt:
			if isName(x.Value) {
				done = true
				return false
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND && isName(x.X) {
				done = true
				return false
			}
		}
		return true
	})
	return done
}
