package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockClass identifies a lock statically: every instance of a mutex stored
// in the same field of the same named type is one class (lock-order
// discipline is per class — "Engine.mu before Group.mu" — not per object).
// Package-level and function-local mutexes form their own classes.
type lockClass string

// lockEdge is one witnessed "acquire B while holding A" event.
type lockEdge struct {
	from, to lockClass
	pos      token.Pos
	fn       string // function the acquisition happens in
}

// checkLockOrder builds the module-wide lock-acquisition graph — which lock
// classes are acquired while which others are held, with calls propagated
// through the call graph and *Locked functions analyzed under their
// receiver's lock — and reports every cycle: a cycle means two goroutines
// can acquire the same locks in opposite orders and deadlock. Self-edges
// (re-acquiring a class, e.g. locking two ranges in key order) are out of
// scope; cycles of length two or more are rejected.
func checkLockOrder(cg *callGraph) []Diagnostic {
	lo := &lockOrder{cg: cg, pending: nil}
	for _, fn := range cg.sortedFuncs() {
		if fn.file.isTest {
			continue
		}
		held := map[lockClass]token.Pos{}
		for _, c := range entryHeld(cg, fn) {
			held[c] = fn.decl.Pos()
		}
		lo.walkFunc(fn, fn.decl.Body.List, held)
	}

	// Transitive acquires to a fixpoint, then project the call-site edges.
	for changed := true; changed; {
		changed = false
		for _, fn := range cg.funcs {
			for _, callee := range fn.callees {
				for c := range callee.acquires {
					if !fn.acquires[c] {
						fn.acquires[c] = true
						changed = true
					}
				}
			}
		}
	}
	for _, p := range lo.pending {
		for _, callee := range p.callees {
			for c := range callee.acquires {
				for _, h := range p.held {
					lo.addEdge(lockEdge{from: h, to: c, pos: p.pos, fn: p.fn})
				}
			}
		}
	}
	return lo.cycles()
}

// entryHeld returns the lock classes assumed held on entry, per the
// repository's *Locked naming convention. The convention does not say
// *which* lock the caller holds (splitLocked's promise is about the range
// latch, not the receiver's mutexes), so the assumption is evidence-based:
// a receiver mutex-struct field counts as held at entry only when the body
// reads state through it (`n.mu.synthSince`) without ever acquiring it
// itself — the signature of code that relies on a caller's critical section.
func entryHeld(cg *callGraph, fn *funcNode) []lockClass {
	if !strings.HasSuffix(fn.obj.Name(), "Locked") {
		return nil
	}
	sig, ok := fn.obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	named := namedOf(sig.Recv().Type())
	if named == nil {
		return nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var out []lockClass
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !holdsMutex(f.Type()) {
			continue
		}
		reads, acquires := fieldLockUsage(cg, fn, named, f.Name())
		if reads && !acquires {
			out = append(out, classForNamedField(named, f.Name()))
		}
	}
	return out
}

// fieldLockUsage reports how fn's body uses the receiver's mutex-struct
// field: reads is true when guarded state is accessed through it
// (recv.field.x for non-lock-method x), acquires when the body locks it.
func fieldLockUsage(cg *callGraph, fn *funcNode, recv *types.Named, field string) (reads, acquires bool) {
	ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok || inner.Sel.Name != field {
			return true
		}
		if namedOf(typeOf(cg.info, inner.X)) != recv {
			return true
		}
		if _, isLockMethod := lockMethods[sel.Sel.Name]; isLockMethod {
			acquires = true
		} else {
			reads = true
		}
		return true
	})
	return reads, acquires
}

// holdsMutex reports whether t is a sync.Mutex/RWMutex or a struct that
// embeds one at its top level (the `mu struct { sync.Mutex; ... }` idiom).
func holdsMutex(t types.Type) bool {
	if isSyncMutex(t) {
		return true
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Embedded() && isSyncMutex(f.Type()) {
			return true
		}
	}
	return false
}

func isSyncMutex(t types.Type) bool {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	name := named.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func classForNamedField(named *types.Named, field string) lockClass {
	pkg := ""
	if named.Obj().Pkg() != nil {
		pkg = named.Obj().Pkg().Path()
	}
	return lockClass(shortPkg(pkg) + "." + named.Obj().Name() + "." + field)
}

// shortPkg trims a module prefix down to the package's tree-local identity,
// keeping diagnostics stable across checkouts.
func shortPkg(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// pendingCall records "callees invoked at pos while held" for projection
// after the transitive-acquire fixpoint.
type pendingCall struct {
	callees []*funcNode
	held    []lockClass
	pos     token.Pos
	fn      string
}

type lockOrder struct {
	cg      *callGraph
	pending []pendingCall
	edges   map[[2]lockClass]lockEdge // first witness per (from, to)
}

// typedLockCall classifies a statement-level mutex call using type
// information: a zero-argument Lock/RLock/Unlock/RUnlock method whose
// receiver is a sync.Mutex or sync.RWMutex (directly or promoted through an
// embedded field). Returns the receiver's lock class.
func (lo *lockOrder) typedLockCall(fn *funcNode, call *ast.CallExpr) (class lockClass, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return "", false, false
	}
	acquire, known := lockMethods[sel.Sel.Name]
	if !known {
		return "", false, false
	}
	obj, isFn := lo.cg.info.Uses[sel.Sel].(*types.Func)
	if !isFn || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", false, false
	}
	return lo.classFor(fn, sel.X), acquire, true
}

// classFor names the lock class of a mutex-valued expression. A selector
// x.f is classed by the nearest named struct type in its receiver chain; a
// plain identifier is classed by its defining scope (package var or
// function-local).
func (lo *lockOrder) classFor(fn *funcNode, expr ast.Expr) lockClass {
	info := lo.cg.info
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if named := namedOf(typeOf(info, e.X)); named != nil {
			return classForNamedField(named, e.Sel.Name)
		}
		// Receiver is an anonymous struct (or similar): fold the field name
		// onto the receiver chain's class.
		return lo.classFor(fn, e.X) + lockClass("."+e.Sel.Name)
	case *ast.Ident:
		if obj := info.ObjectOf(e); obj != nil {
			if pkg := obj.Pkg(); pkg != nil {
				if pkg.Scope().Lookup(e.Name) == obj {
					return lockClass(shortPkg(pkg.Path()) + "." + e.Name)
				}
				return lockClass(shortPkg(pkg.Path()) + "." + fn.obj.Name() + "." + e.Name)
			}
		}
		return lockClass(e.Name)
	}
	return lockClass(types.ExprString(expr))
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// walkFunc processes stmts in order, tracking the held set; branches recurse
// on copies (a release inside a branch does not propagate out, matching the
// conservative discipline of the other lock walkers). Function literals are
// walked as independent functions with an empty held set — a goroutine or
// callback does not inherit this goroutine's critical section — and calls
// they make are recorded under their own held tracking.
func (lo *lockOrder) walkFunc(fn *funcNode, stmts []ast.Stmt, held map[lockClass]token.Pos) {
	copyHeld := func() map[lockClass]token.Pos {
		c := make(map[lockClass]token.Pos, len(held))
		for k, v := range held {
			c[k] = v
		}
		return c
	}
	for _, s := range stmts {
		lo.visitFuncLits(fn, s)
		switch st := s.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if class, acquire, ok := lo.typedLockCall(fn, call); ok {
					if acquire {
						lo.recordAcquire(fn, class, held, call.Pos())
						held[class] = call.Pos()
					} else {
						delete(held, class)
					}
					continue
				}
			}
			lo.scanCalls(fn, st.X, held)
		case *ast.DeferStmt:
			if _, acquire, ok := lo.typedLockCall(fn, st.Call); ok {
				if !acquire {
					// defer Unlock: held until return; leave the set as is.
					continue
				}
			}
			lo.scanCalls(fn, st.Call, held)
		case *ast.GoStmt:
			// The spawned goroutine's acquisitions do not nest inside this
			// goroutine's critical section; only argument evaluation runs
			// under the lock.
			for _, arg := range st.Call.Args {
				lo.scanCalls(fn, arg, held)
			}
		case *ast.IfStmt:
			if st.Init != nil {
				lo.walkFunc(fn, []ast.Stmt{st.Init}, held)
			}
			lo.scanCalls(fn, st.Cond, held)
			lo.walkFunc(fn, st.Body.List, copyHeld())
			if st.Else != nil {
				lo.walkFunc(fn, []ast.Stmt{st.Else}, copyHeld())
			}
		case *ast.BlockStmt:
			lo.walkFunc(fn, st.List, held)
		case *ast.ForStmt:
			if st.Init != nil {
				lo.walkFunc(fn, []ast.Stmt{st.Init}, held)
			}
			if st.Cond != nil {
				lo.scanCalls(fn, st.Cond, held)
			}
			lo.walkFunc(fn, st.Body.List, copyHeld())
		case *ast.RangeStmt:
			lo.scanCalls(fn, st.X, held)
			lo.walkFunc(fn, st.Body.List, copyHeld())
		case *ast.SwitchStmt:
			if st.Tag != nil {
				lo.scanCalls(fn, st.Tag, held)
			}
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					lo.walkFunc(fn, cc.Body, copyHeld())
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					lo.walkFunc(fn, cc.Body, copyHeld())
				}
			}
		case *ast.SelectStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					lo.walkFunc(fn, cc.Body, copyHeld())
				}
			}
		case *ast.LabeledStmt:
			lo.walkFunc(fn, []ast.Stmt{st.Stmt}, held)
		case *ast.AssignStmt:
			for _, e := range st.Rhs {
				lo.scanCalls(fn, e, held)
			}
		case *ast.ReturnStmt:
			for _, e := range st.Results {
				lo.scanCalls(fn, e, held)
			}
		case *ast.DeclStmt:
			lo.scanCalls(fn, st, held)
		case *ast.SendStmt:
			lo.scanCalls(fn, st.Chan, held)
			lo.scanCalls(fn, st.Value, held)
		}
	}
}

// visitFuncLits walks function literals nested directly in s as independent
// functions (empty entry held set). Container statements recurse via
// walkFunc, so only leaf statements are inspected here.
func (lo *lockOrder) visitFuncLits(fn *funcNode, s ast.Stmt) {
	switch s.(type) {
	case *ast.BlockStmt, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt,
		*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.LabeledStmt:
		return
	}
	ast.Inspect(s, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			lo.walkFunc(fn, fl.Body.List, map[lockClass]token.Pos{})
			return false
		}
		return true
	})
}

// recordAcquire registers direct edges from every held class to the newly
// acquired one.
func (lo *lockOrder) recordAcquire(fn *funcNode, class lockClass, held map[lockClass]token.Pos, pos token.Pos) {
	for h := range held {
		lo.addEdge(lockEdge{from: h, to: class, pos: pos, fn: fn.obj.Name()})
	}
	fn.acquires[class] = true
}

// scanCalls records calls found in an expression (excluding nested function
// literals, handled by visitFuncLits) for edge projection: while held, a
// callee's transitive acquisitions nest inside the critical section. Direct
// acquisitions by the callee set fn's acquires bit through the call graph
// fixpoint instead.
func (lo *lockOrder) scanCalls(fn *funcNode, n ast.Node, held map[lockClass]token.Pos) {
	if n == nil || len(held) == 0 {
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
		callees := lo.cg.calleesOf(call)
		if len(callees) == 0 {
			return true
		}
		heldList := make([]lockClass, 0, len(held))
		for h := range held {
			heldList = append(heldList, h)
		}
		sort.Slice(heldList, func(i, j int) bool { return heldList[i] < heldList[j] })
		lo.pending = append(lo.pending, pendingCall{
			callees: callees, held: heldList, pos: call.Pos(), fn: fn.obj.Name(),
		})
		return true
	})
}

// addEdge records the first witness of a lock-order edge; self-edges are
// skipped by design.
func (lo *lockOrder) addEdge(e lockEdge) {
	if e.from == e.to {
		return
	}
	// Read and write locks of one class share an order identity.
	key := [2]lockClass{lockClass(strings.TrimSuffix(string(e.from), "|R")), lockClass(strings.TrimSuffix(string(e.to), "|R"))}
	if lo.edges == nil {
		lo.edges = map[[2]lockClass]lockEdge{}
	}
	if old, ok := lo.edges[key]; !ok || e.pos < old.pos {
		lo.edges[key] = e
	}
}

// cycles finds strongly connected components with two or more lock classes
// in the acquisition graph and reports one diagnostic per cycle, anchored at
// the witness of its lexicographically-smallest edge, with the full cycle
// path (and each edge's witness function) in the message.
func (lo *lockOrder) cycles() []Diagnostic {
	edgeKeys := make([][2]lockClass, 0, len(lo.edges))
	for key := range lo.edges {
		edgeKeys = append(edgeKeys, key)
	}
	sort.Slice(edgeKeys, func(i, j int) bool {
		if edgeKeys[i][0] != edgeKeys[j][0] {
			return edgeKeys[i][0] < edgeKeys[j][0]
		}
		return edgeKeys[i][1] < edgeKeys[j][1]
	})
	adj := map[lockClass][]lockClass{}
	nodes := map[lockClass]bool{}
	for _, key := range edgeKeys {
		// Key order makes each successor list sorted as built.
		adj[key[0]] = append(adj[key[0]], key[1])
		nodes[key[0]], nodes[key[1]] = true, true
	}
	ordered := make([]lockClass, 0, len(nodes))
	for n := range nodes {
		ordered = append(ordered, n)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })

	sccs := tarjanSCC(ordered, adj)
	var diags []Diagnostic
	for _, scc := range sccs {
		if len(scc) < 2 {
			continue
		}
		inSCC := map[lockClass]bool{}
		for _, n := range scc {
			inSCC[n] = true
		}
		sort.Slice(scc, func(i, j int) bool { return scc[i] < scc[j] })
		// Walk a representative cycle starting from the smallest class,
		// always stepping to the smallest in-SCC successor not yet visited
		// (falling back to the start to close the loop).
		path := []lockClass{scc[0]}
		visited := map[lockClass]bool{scc[0]: true}
		for {
			cur := path[len(path)-1]
			var next lockClass
			found := false
			for _, s := range adj[cur] {
				if inSCC[s] && !visited[s] {
					next, found = s, true
					break
				}
			}
			if !found {
				break
			}
			visited[next] = true
			path = append(path, next)
		}
		var parts []string
		var anchor lockEdge
		anchorSet := false
		for i := range path {
			from, to := path[i], path[(i+1)%len(path)]
			e, ok := lo.edges[[2]lockClass{from, to}]
			if !ok {
				// The greedy walk can pick a non-edge closing step when the
				// SCC is not one simple cycle; fall back to any in-SCC edge.
				continue
			}
			pos := lo.cg.tree.fset.Position(e.pos)
			parts = append(parts, fmt.Sprintf("%s -> %s (%s at %s:%d)", from, to, e.fn, shortPath(pos.Filename), pos.Line))
			if !anchorSet || string(e.from) < string(anchor.from) {
				anchor, anchorSet = e, true
			}
		}
		if !anchorSet {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:   lo.cg.tree.fset.Position(anchor.pos),
			Check: "lockorder",
			Message: fmt.Sprintf("lock-order cycle: %s; acquire these locks in one global order",
				strings.Join(parts, ", ")),
		})
	}
	return diags
}

// tarjanSCC computes strongly connected components over the lock graph.
func tarjanSCC(nodes []lockClass, adj map[lockClass][]lockClass) [][]lockClass {
	index := map[lockClass]int{}
	low := map[lockClass]int{}
	onStack := map[lockClass]bool{}
	var stack []lockClass
	var sccs [][]lockClass
	next := 0
	var strong func(v lockClass)
	strong = func(v lockClass) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []lockClass
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strong(v)
		}
	}
	return sccs
}
