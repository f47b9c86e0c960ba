package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// lockMethods maps a mutex method name to whether it acquires (true) or
// releases (false).
var lockMethods = map[string]bool{
	"Lock": true, "RLock": true,
	"Unlock": false, "RUnlock": false,
}

// mutexRecvName reports whether the receiver of a Lock/Unlock-style call is
// named like a mutex. crdb-lint is syntactic, so this naming heuristic is
// what keeps Lock() methods on unrelated types (e.g. a table lock manager)
// from being misclassified.
func mutexRecvName(name string) bool {
	switch name {
	case "mu", "mtx", "lock":
		return true
	}
	return strings.HasSuffix(name, "Mu") || strings.HasSuffix(name, "Mtx") ||
		strings.HasSuffix(name, "Mutex") || strings.HasSuffix(name, "mutex")
}

// lockCall decodes a statement-level mutex call: the lock key (receiver
// expression, with "|R" appended for read locks), whether it acquires, and
// whether it matched at all.
func lockCall(call *ast.CallExpr) (key string, acquire, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	acquire, known := lockMethods[sel.Sel.Name]
	if !known || len(call.Args) != 0 {
		return "", false, false
	}
	recv := sel.X
	// The receiver's final component must be mutex-named.
	final := ""
	switch x := recv.(type) {
	case *ast.Ident:
		final = x.Name
	case *ast.SelectorExpr:
		final = x.Sel.Name
	default:
		return "", false, false
	}
	if !mutexRecvName(final) {
		return "", false, false
	}
	key = types.ExprString(recv)
	if strings.HasPrefix(sel.Sel.Name, "R") {
		key += "|R"
	}
	return key, acquire, true
}

// checkLockSafety runs the three lock-hygiene checks over one file.
func checkLockSafety(f *file) []Diagnostic {
	var diags []Diagnostic
	la := &lockAnalyzer{f: f}
	for _, decl := range f.ast.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		diags = append(diags, la.checkMissingUnlock(fd)...)
		diags = append(diags, la.checkBody(fd.Body, map[string]bool{})...)
	}
	return diags
}

type lockAnalyzer struct {
	f *file
}

// checkMissingUnlock tallies Lock/Unlock pairs across a whole function body
// (nested closures included, so `defer func() { mu.Unlock() }()` counts) and
// flags lock keys that are acquired but never released.
func (la *lockAnalyzer) checkMissingUnlock(fd *ast.FuncDecl) []Diagnostic {
	type tally struct {
		locks, unlocks int
		first          ast.Node
	}
	tallies := map[string]*tally{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		key, acquire, ok := lockCall(call)
		if !ok {
			return true
		}
		t := tallies[key]
		if t == nil {
			t = &tally{}
			tallies[key] = t
		}
		if acquire {
			t.locks++
			if t.first == nil {
				t.first = call
			}
		} else {
			t.unlocks++
		}
		return true
	})
	var diags []Diagnostic
	keys := make([]string, 0, len(tallies))
	for key := range tallies {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		t := tallies[key]
		if t.locks > 0 && t.unlocks == 0 {
			recv := strings.TrimSuffix(key, "|R")
			verb := "Lock"
			if strings.HasSuffix(key, "|R") {
				verb = "RLock"
			}
			diags = append(diags, Diagnostic{
				Pos:     la.f.fset.Position(t.first.Pos()),
				Check:   "locksafety",
				Message: fmt.Sprintf("%s.%s() in %s has no matching unlock on any path", recv, verb, fd.Name.Name),
			})
		}
	}
	return diags
}

// checkBody walks a function body statement by statement, tracking which
// locks are held, to flag `defer mu.Lock()` typos and channel sends
// performed while a lock is held. Nested function literals are analyzed as
// independent functions (a goroutine does not inherit the caller's locks),
// but they do inherit the set of function-local channels: a send on a
// freshly made (buffered or promptly-drained) local channel is not a
// blocking hazard and is exempt.
func (la *lockAnalyzer) checkBody(body *ast.BlockStmt, localChans map[string]bool) []Diagnostic {
	chans := make(map[string]bool, len(localChans))
	for k := range localChans {
		chans[k] = true
	}
	collectLocalChans(body, chans)
	var diags []Diagnostic
	var nested []*ast.FuncLit
	held := map[string]bool{}
	la.walkStmts(body.List, held, chans, &diags, &nested)
	for _, fl := range nested {
		diags = append(diags, la.checkBody(fl.Body, chans)...)
	}
	return diags
}

// collectLocalChans records identifiers assigned from make(chan ...) within
// body (not descending into nested function literals' own assignments is
// not worth the complexity; over-collection only suppresses, never flags).
func collectLocalChans(body *ast.BlockStmt, out map[string]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				continue
			}
			if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "make" {
				continue
			}
			if _, ok := call.Args[0].(*ast.ChanType); !ok {
				continue
			}
			if i < len(as.Lhs) {
				if id, ok := as.Lhs[i].(*ast.Ident); ok {
					out[id.Name] = true
				}
			}
		}
		return true
	})
}

// walkStmts processes stmts in order, mutating held. Branching constructs
// recurse with a copy of held (conservative: releases inside a branch do not
// propagate out).
func (la *lockAnalyzer) walkStmts(stmts []ast.Stmt, held, chans map[string]bool, diags *[]Diagnostic, nested *[]*ast.FuncLit) {
	copyHeld := func() map[string]bool {
		c := make(map[string]bool, len(held))
		for k := range held {
			c[k] = true
		}
		return c
	}
	for _, s := range stmts {
		la.collectFuncLits(s, nested)
		switch st := s.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if key, acquire, ok := lockCall(call); ok {
					if acquire {
						held[key] = true
					} else {
						delete(held, key)
					}
				}
			}
		case *ast.DeferStmt:
			if key, acquire, ok := lockCall(st.Call); ok {
				if acquire {
					*diags = append(*diags, Diagnostic{
						Pos:     la.f.fset.Position(st.Pos()),
						Check:   "locksafety",
						Message: fmt.Sprintf("defer %s acquires at function exit — did you mean defer ...Unlock()?", types.ExprString(st.Call)),
					})
				}
				// defer Unlock: the lock stays held until return; leave it
				// in held so sends below it are still flagged.
				_ = key
			}
		case *ast.SendStmt:
			la.checkSend(st, held, chans, diags)
		case *ast.IfStmt:
			if st.Init != nil {
				la.walkStmts([]ast.Stmt{st.Init}, held, chans, diags, nested)
			}
			la.walkStmts(st.Body.List, copyHeld(), chans, diags, nested)
			if st.Else != nil {
				la.walkStmts([]ast.Stmt{st.Else}, copyHeld(), chans, diags, nested)
			}
		case *ast.BlockStmt:
			la.walkStmts(st.List, held, chans, diags, nested)
		case *ast.ForStmt:
			la.walkStmts(st.Body.List, copyHeld(), chans, diags, nested)
		case *ast.RangeStmt:
			la.walkStmts(st.Body.List, copyHeld(), chans, diags, nested)
		case *ast.SwitchStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					la.walkStmts(cc.Body, copyHeld(), chans, diags, nested)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					la.walkStmts(cc.Body, copyHeld(), chans, diags, nested)
				}
			}
		case *ast.SelectStmt:
			for _, c := range st.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok {
					continue
				}
				if send, ok := cc.Comm.(*ast.SendStmt); ok {
					la.checkSend(send, held, chans, diags)
				}
				la.walkStmts(cc.Body, copyHeld(), chans, diags, nested)
			}
		case *ast.LabeledStmt:
			la.walkStmts([]ast.Stmt{st.Stmt}, held, chans, diags, nested)
		}
	}
}

func (la *lockAnalyzer) checkSend(send *ast.SendStmt, held, chans map[string]bool, diags *[]Diagnostic) {
	if len(held) == 0 {
		return
	}
	if id, ok := send.Chan.(*ast.Ident); ok && chans[id.Name] {
		return
	}
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, strings.TrimSuffix(k, "|R"))
	}
	sort.Strings(keys)
	*diags = append(*diags, Diagnostic{
		Pos:     la.f.fset.Position(send.Pos()),
		Check:   "locksafety",
		Message: fmt.Sprintf("channel send while holding %s can deadlock; release the lock first", strings.Join(keys, ", ")),
	})
}

// collectFuncLits queues function literals found in a statement's
// expressions (closures, goroutine bodies, deferred funcs) for independent
// analysis, without descending into them here.
func (la *lockAnalyzer) collectFuncLits(s ast.Stmt, nested *[]*ast.FuncLit) {
	switch s.(type) {
	case *ast.BlockStmt, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt,
		*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.LabeledStmt:
		// Their nested statements are walked by walkStmts; literals inside
		// conditions/init are rare enough to skip.
		return
	}
	ast.Inspect(s, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			*nested = append(*nested, fl)
			return false
		}
		return true
	})
}
