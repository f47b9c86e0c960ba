package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// deadSurfaceReasonRE admits the four kinds of reason a deadsurface allow
// may give: a test seam (naming the test), a deployment setting or
// credential, a paper mechanism a figure or test pins (naming the section),
// or an open ROADMAP item (naming it).
var deadSurfaceReasonRE = regexp.MustCompile(`^(test seam|deployment|credential|paper §[0-9.]+|roadmap): \S`)

// Use kinds a field selector can have; an unmarked use is a read.
const (
	useWrite   = 1 << iota // assigned or incremented
	useRead                // also read (an address taken, a pointer method called)
	useDefault             // assigned by an `if x.F == zero { x.F = d }` default
)

// deadSurface is the state of one deadsurface pass: which field selectors
// are writes, and which fields and functions non-test code reaches.
type deadSurface struct {
	t    *Tree
	info *types.Info
	// pkg is the package classify is walking.
	pkg *types.Package
	use map[*ast.Ident]int
	// dflt marks the assignments that only fill in a zero value.
	dflt map[*ast.AssignStmt]bool

	written, read, dfltOnly map[*types.Var]bool
	refs                    map[*types.Func]int
}

// checkDeadSurface reports surface no program reaches: an exported struct
// field no non-test code writes, a field written but never read, and an
// exported function or method no non-test code references. Every
// type-checked file counts as a caller, a nested module's included, but
// findings inside a nested module are not reported.
func checkDeadSurface(t *Tree) []Diagnostic {
	ds := &deadSurface{
		t: t, info: t.info,
		use:      map[*ast.Ident]int{},
		dflt:     map[*ast.AssignStmt]bool{},
		written:  map[*types.Var]bool{},
		read:     map[*types.Var]bool{},
		dfltOnly: map[*types.Var]bool{},
		refs:     map[*types.Func]int{},
	}
	for _, p := range t.pkgs {
		ds.pkg = p.Types
		for _, f := range p.Files {
			ast.Inspect(f.ast, ds.classify)
		}
	}
	ds.countUses()
	ds.markMapKeys()

	testSel := map[string]bool{}
	for _, f := range t.files {
		if f.isTest {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					testSel[sel.Sel.Name] = true
				}
				return true
			})
		}
	}

	var diags []Diagnostic
	ifaces := ds.interfacesByMethod()
	for _, p := range t.pkgs {
		for _, f := range p.Files {
			if !t.inNestedModule(f.relPath) {
				diags = append(diags, ds.fieldFindings(f, testSel)...)
				diags = append(diags, ds.funcFindings(f, ifaces)...)
			}
		}
	}
	return diags
}

// classify marks the field selectors in write position under n.
func (ds *deadSurface) classify(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		kind := useWrite
		if ds.dflt[n] {
			kind = useDefault
		}
		for _, lhs := range n.Lhs {
			ds.lvalue(lhs, kind)
		}
	case *ast.IncDecStmt:
		ds.lvalue(n.X, useWrite)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			ds.lvalue(n.X, useWrite|useRead)
		}
	case *ast.CallExpr:
		// A pointer method called on an addressable field takes its address.
		if fun, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
			if sel := ds.info.Selections[fun]; sel != nil && sel.Kind() == types.MethodVal {
				if sig, ok := sel.Obj().Type().(*types.Signature); ok && sig.Recv() != nil {
					if _, ptr := sig.Recv().Type().(*types.Pointer); ptr && !isPointer(ds.info.TypeOf(fun.X)) {
						ds.lvalue(fun.X, useWrite|useRead)
					}
				}
			}
		}
	case *ast.IfStmt:
		ds.markDefault(n)
	case *ast.CompositeLit:
		// A positional struct literal writes every field.
		if st, ok := under(ds.info.TypeOf(n)).(*types.Struct); ok && len(n.Elts) > 0 {
			if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
				for i := 0; i < st.NumFields(); i++ {
					ds.written[st.Field(i).Origin()] = true
				}
			}
		}
		for _, e := range n.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					ds.use[id] |= useWrite
				}
			}
		}
	}
	return true
}

// markDefault recognises `if x.F == zero { x.F = d }` in F's own package
// and records its assignments to x.F as defaults rather than writes.
func (ds *deadSurface) markDefault(n *ast.IfStmt) {
	cond, ok := n.Cond.(*ast.BinaryExpr)
	if !ok || (cond.Op != token.EQL && cond.Op != token.LEQ) || !isZeroLit(cond.Y) {
		return
	}
	x, ok := cond.X.(*ast.SelectorExpr)
	if sel := ds.info.Selections[x]; !ok || sel == nil || sel.Obj().Pkg() != ds.pkg {
		return
	}
	target := types.ExprString(cond.X)
	for _, st := range n.Body.List {
		if as, ok := st.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && types.ExprString(as.Lhs[0]) == target {
			ds.dflt[as] = true
		}
	}
}

func isZeroLit(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return e.Value == "0" || e.Value == `""` || e.Value == "0.0"
	case *ast.Ident:
		return e.Name == "nil" || e.Name == "false"
	}
	return false
}

// lvalue marks the field selectors along an assigned-to path: x.F.G = v
// writes G and F, x.M[k] = v writes M. A path stops at a pointer, which is
// read to reach what it points to.
func (ds *deadSurface) lvalue(e ast.Expr, kind int) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		ds.lvalue(e.X, kind)
	case *ast.IndexExpr:
		ds.lvalue(e.X, kind)
	case *ast.SelectorExpr:
		if sel := ds.info.Selections[e]; sel == nil || sel.Kind() != types.FieldVal {
			return
		}
		ds.use[e.Sel] |= kind
		if !isPointer(ds.info.TypeOf(e.X)) {
			ds.lvalue(e.X, kind)
		}
	}
}

// countUses folds every use of a field or function in non-test code into
// written/read/refs.
func (ds *deadSurface) countUses() {
	for id, obj := range ds.info.Uses {
		switch obj := obj.(type) {
		case *types.Func:
			ds.refs[obj.Origin()]++
		case *types.Var:
			if !obj.IsField() {
				continue
			}
			v, kind := obj.Origin(), ds.use[id]
			switch {
			case kind == 0:
				ds.read[v] = true
			case kind&useDefault != 0:
				ds.dfltOnly[v] = true
			default:
				ds.written[v] = true
				if kind&useRead != 0 {
					ds.read[v] = true
				}
			}
		}
	}
}

// markMapKeys counts every field of a struct used as a map key as read:
// hashing reads them all.
func (ds *deadSurface) markMapKeys() {
	seen := map[types.Type]bool{}
	var mark func(t types.Type)
	mark = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				ds.read[st.Field(i).Origin()] = true
				mark(st.Field(i).Type())
			}
		}
	}
	for _, tv := range ds.info.Types {
		if m, ok := under(tv.Type).(*types.Map); ok {
			mark(m.Key())
		}
	}
}

// fieldFindings reports the fields f declares that are never written, or
// written but never read. Tagged fields are exempt: encoding/json reaches
// them by reflection.
func (ds *deadSurface) fieldFindings(f *file, testSel map[string]bool) []Diagnostic {
	owners := map[*ast.StructType]string{}
	ast.Inspect(f.ast, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok {
			if st, ok := ts.Type.(*ast.StructType); ok {
				owners[st] = ts.Name.Name
			}
		}
		return true
	})
	var diags []Diagnostic
	ast.Inspect(f.ast, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		owner := owners[st]
		if owner == "" {
			owner = "struct"
		}
		for _, fld := range st.Fields.List {
			if fld.Tag != nil {
				continue
			}
			for _, name := range fld.Names {
				v, ok := ds.info.Defs[name].(*types.Var)
				if !ok || name.Name == "_" {
					continue
				}
				var msg string
				switch {
				case v.Exported() && !ds.written[v] && ds.dfltOnly[v]:
					msg = "is written only by its own zero-value default; make it a constant"
				case v.Exported() && !ds.written[v]:
					msg = "is never written by non-test code"
				case ds.written[v] && !ds.read[v] && !testSel[name.Name]:
					msg = "is written but never read"
				default:
					continue
				}
				diags = append(diags, Diagnostic{Pos: f.fset.Position(name.Pos()), Check: "deadsurface",
					Message: fmt.Sprintf("field %s.%s %s", owner, name.Name, msg)})
			}
		}
		return true
	})
	return diags
}

// funcFindings reports the exported functions and methods f declares that
// no non-test code references. A method that implements an interface
// declaring it, and Unwrap/Is/As, are reached without a reference.
func (ds *deadSurface) funcFindings(f *file, ifaces map[string][]*types.Interface) []Diagnostic {
	var diags []Diagnostic
	for _, decl := range f.ast.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || !fd.Name.IsExported() {
			continue
		}
		obj, ok := ds.info.Defs[fd.Name].(*types.Func)
		if !ok || ds.refs[obj] > 0 {
			continue
		}
		what := "func " + fd.Name.Name
		if fd.Recv != nil {
			switch fd.Name.Name {
			case "Unwrap", "Is", "As":
				continue
			}
			recv := obj.Type().(*types.Signature).Recv().Type()
			if implementsDeclaring(recv, fd.Name.Name, ifaces) {
				continue
			}
			what = fmt.Sprintf("method (%s).%s", types.TypeString(recv, types.RelativeTo(obj.Pkg())), fd.Name.Name)
		}
		diags = append(diags, Diagnostic{Pos: f.fset.Position(fd.Name.Pos()), Check: "deadsurface",
			Message: fmt.Sprintf("exported %s has no non-test reference; delete it or wire it into a caller", what)})
	}
	return diags
}

// implementsDeclaring reports whether recv (or its pointer) implements an
// interface that declares the method name.
func implementsDeclaring(recv types.Type, name string, ifaces map[string][]*types.Interface) bool {
	base := recv
	if p, ok := recv.(*types.Pointer); ok {
		base = p.Elem()
	}
	for _, it := range ifaces[name] {
		if types.Implements(base, it) || types.Implements(types.NewPointer(base), it) {
			return true
		}
	}
	return false
}

// interfacesByMethod indexes, by method name, every non-generic interface
// declared in a type-checked or imported package, and error.
func (ds *deadSurface) interfacesByMethod() map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	add := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			out[it.Method(i).Name()] = append(out[it.Method(i).Name()], it)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				add(it)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range ds.t.pkgs {
		visit(p.Types)
	}
	return out
}

func under(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.Underlying()
}

func isPointer(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}
