package lint

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"
)

// lockScopeDirs are the package-directory base names where the lock-scope
// discipline is enforced: the storage engine and the replication group keep
// heavy work (sorts, SSTable builds, merge loops, fault-site consults that
// may sleep) outside their exclusive locks, so a flush or commit round never
// stalls concurrent readers. The check is deliberately scoped — elsewhere in
// the tree a sort under a lock is unremarkable.
var lockScopeDirs = map[string]bool{"lsm": true, "raftlite": true}

// lockScopeHeavyIdents are package-level functions considered heavy: calling
// them while a mutex is held defeats the write-path pipelining.
var lockScopeHeavyIdents = map[string]bool{"mergeSources": true, "newSSTable": true}

// lockScopeScoped reports whether the check applies to files in pkgDir.
func lockScopeScoped(pkgDir string) bool {
	base := pkgDir
	if i := strings.LastIndexByte(pkgDir, '/'); i >= 0 {
		base = pkgDir[i+1:]
	}
	return lockScopeDirs[base]
}

// checkLockScope flags heavy calls made while a mutex is held, in the
// packages that pin the out-of-lock invariant. Like the rest of crdb-lint it
// is syntactic: locks are recognized by lockCall's naming heuristic, and a
// function whose name ends in "Locked" is analyzed as if a caller's lock
// were already held (the repository's convention for helpers that require
// the lock).
func checkLockScope(f *file) []Diagnostic {
	if f.isTest || !lockScopeScoped(f.pkgDir) {
		return nil
	}
	var diags []Diagnostic
	for _, decl := range f.ast.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		held := map[string]bool{}
		if strings.HasSuffix(fd.Name.Name, "Locked") {
			held["the caller's lock"] = true
		}
		w := &lockScopeWalker{f: f}
		w.walk(fd.Body.List, held, &diags)
	}
	return diags
}

type lockScopeWalker struct {
	f *file
}

// walk processes stmts in order, mutating held, mirroring the traversal
// discipline of locksafety's walkStmts: branches recurse with a copy of the
// held set, and function literals are not entered (a goroutine or deferred
// closure does not inherit the enclosing critical section for this check's
// purposes — it is flagged only if it takes the lock itself).
func (w *lockScopeWalker) walk(stmts []ast.Stmt, held map[string]bool, diags *[]Diagnostic) {
	copyHeld := func() map[string]bool {
		c := make(map[string]bool, len(held))
		for k := range held {
			c[k] = true
		}
		return c
	}
	for _, s := range stmts {
		switch st := s.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if key, acquire, ok := lockCall(call); ok {
					if acquire {
						held[key] = true
					} else {
						delete(held, key)
					}
					continue
				}
			}
			w.scan(st.X, held, diags)
		case *ast.DeferStmt:
			if _, acquire, ok := lockCall(st.Call); ok && !acquire {
				// defer Unlock: the lock stays held for the rest of the
				// body; leave held as is.
				continue
			}
			// Arguments are evaluated at defer time; the called function
			// runs at return, conservatively still inside the section when
			// an Unlock is also deferred — scan it all.
			w.scan(st.Call, held, diags)
		case *ast.GoStmt:
			// Only the call's operands are evaluated under the lock; the
			// goroutine body runs outside it.
			for _, arg := range st.Call.Args {
				w.scan(arg, held, diags)
			}
		case *ast.IfStmt:
			if st.Init != nil {
				w.walk([]ast.Stmt{st.Init}, held, diags)
			}
			w.scan(st.Cond, held, diags)
			w.walk(st.Body.List, copyHeld(), diags)
			if st.Else != nil {
				w.walk([]ast.Stmt{st.Else}, copyHeld(), diags)
			}
		case *ast.BlockStmt:
			w.walk(st.List, held, diags)
		case *ast.ForStmt:
			if st.Init != nil {
				w.walk([]ast.Stmt{st.Init}, held, diags)
			}
			if st.Cond != nil {
				w.scan(st.Cond, held, diags)
			}
			w.walk(st.Body.List, copyHeld(), diags)
		case *ast.RangeStmt:
			w.scan(st.X, held, diags)
			w.walk(st.Body.List, copyHeld(), diags)
		case *ast.SwitchStmt:
			if st.Tag != nil {
				w.scan(st.Tag, held, diags)
			}
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					w.walk(cc.Body, copyHeld(), diags)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					w.walk(cc.Body, copyHeld(), diags)
				}
			}
		case *ast.SelectStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					w.walk(cc.Body, copyHeld(), diags)
				}
			}
		case *ast.LabeledStmt:
			w.walk([]ast.Stmt{st.Stmt}, held, diags)
		case *ast.AssignStmt:
			for _, e := range st.Rhs {
				w.scan(e, held, diags)
			}
			for _, e := range st.Lhs {
				w.scan(e, held, diags)
			}
		case *ast.ReturnStmt:
			for _, e := range st.Results {
				w.scan(e, held, diags)
			}
		case *ast.DeclStmt:
			w.scanNode(st, held, diags)
		case *ast.SendStmt:
			w.scan(st.Chan, held, diags)
			w.scan(st.Value, held, diags)
		case *ast.IncDecStmt:
			w.scan(st.X, held, diags)
		}
	}
}

// scan inspects one expression for heavy calls performed while held is
// non-empty, without descending into function literals.
func (w *lockScopeWalker) scan(expr ast.Expr, held map[string]bool, diags *[]Diagnostic) {
	if expr == nil || len(held) == 0 {
		return
	}
	w.scanNode(expr, held, diags)
}

func (w *lockScopeWalker) scanNode(n ast.Node, held map[string]bool, diags *[]Diagnostic) {
	if len(held) == 0 {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name := lockScopeHeavyCall(call); name != "" {
			*diags = append(*diags, Diagnostic{
				Pos:   w.f.fset.Position(call.Pos()),
				Check: "lockscope",
				Message: fmt.Sprintf("%s called while holding %s; move the work outside the critical section",
					name, heldDesc(held)),
			})
		}
		return true
	})
}

// heldDesc renders the held-lock set for a diagnostic, deterministically.
func heldDesc(held map[string]bool) string {
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, strings.TrimSuffix(k, "|R"))
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

// lockScopeHeavyCall classifies a call as heavy work that must not run under
// a lock: merge loops and SSTable builds, sorts, fault-site consults (an
// armed site may sleep its configured Delay), and clock sleeps.
func lockScopeHeavyCall(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if lockScopeHeavyIdents[fun.Name] {
			return fun.Name
		}
	case *ast.SelectorExpr:
		sel := fun.Sel.Name
		if id, ok := fun.X.(*ast.Ident); ok && id.Name == "sort" &&
			(sel == "Slice" || sel == "SliceStable" || sel == "Sort" || sel == "Stable") {
			return "sort." + sel
		}
		final := ""
		switch x := fun.X.(type) {
		case *ast.Ident:
			final = x.Name
		case *ast.SelectorExpr:
			final = x.Sel.Name
		}
		switch sel {
		case "Should", "MaybeErr":
			// faultinject.Registry consults: g.faults.Should(...),
			// e.opts.Faults.MaybeErr(...).
			if strings.HasSuffix(final, "aults") {
				return final + "." + sel
			}
		case "Sleep":
			if final == "clock" || strings.HasSuffix(final, "Clock") {
				return final + ".Sleep"
			}
		}
	}
	return ""
}
