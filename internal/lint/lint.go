// Package lint implements crdb-lint, a from-scratch static analyzer (stdlib
// only: go/parser, go/ast, go/token, go/types, go/importer) that enforces the
// repository's correctness invariants.
//
// Two layers of analysis feed the checks. The syntactic layer walks each
// file's AST. The type-checked layer loads every in-module package in
// dependency order through go/types (stdlib imports resolve via go/importer),
// builds a module-wide call graph — interface calls devirtualize to their
// in-tree implementations — and computes per-function summaries (fault-site
// consults, order-observable effects, lock acquisitions) to a fixpoint, so
// the interprocedural checks reason across package boundaries.
//
// Checks:
//
//   - deadsurface: surface no program reaches. Every non-test file is a
//     caller, a nested module's (such as bench/) included, but findings in a
//     nested module are not reported. Three shapes: an exported struct field
//     no non-test code writes, or writes only in its own package's
//     `if x.F == zero { x.F = d }` (literals, assignment also through an
//     index, ++/--, &x.F and a pointer method called on x.F are writes); a
//     field written but never read (a .F selector in any _test.go file
//     counts as a read, and so do the fields of a map-key struct); and an
//     exported function or method no non-test code references. Tagged
//     fields (reached by reflection), methods that
//     implement an in-tree or imported interface declaring them, and
//     Unwrap/Is/As are exempt. An allow must name its kind: `test seam:`
//     (name the test), `deployment:` or `credential:`, `paper §N:` (a
//     mechanism a figure or test pins), or `roadmap:` (the open item).
//   - directtime: no direct time.Now/Sleep/After/... calls outside
//     internal/timeutil and _test.go files; components thread a
//     timeutil.Clock so the simulator and the latency experiments stay
//     deterministic.
//   - faulterr: a call whose callee transitively consults a faultinject
//     site must not structurally drop its error result (bare expression
//     statement, blank assignment, go/defer) — an injected fault that is
//     silently swallowed turns every chaos run into a false negative.
//   - globalrand: no global math/rand functions anywhere, and no
//     rand.New/rand.NewSource outside internal/randutil and tests; RNGs are
//     threaded explicitly (randutil.NewRand/Fork) so every run is
//     reproducible. Seeding any source from time.Now is flagged everywhere.
//   - gobimport: no encoding/gob import outside _test.go files; every byte
//     format that crosses a process or survives a crash is built on
//     internal/binenc, with a golden fixture and a fuzz target.
//   - lockorder: the module-wide lock-acquisition graph (which mutex
//     classes are acquired while which are held, propagated through the
//     call graph; *Locked functions are analyzed under their receiver's
//     lock) must stay acyclic, so the pipelined flush/compaction/commit
//     paths cannot deadlock by construction.
//   - lockscope: in internal/lsm and internal/raftlite, no heavy work while
//     a mutex is held — merge loops, SSTable builds, sorts, fault-site
//     consults (which may sleep an injected Delay), and clock sleeps must
//     run outside the critical section so flushes, compactions, and commit
//     rounds never stall concurrent readers. Functions named *Locked are
//     analyzed as if a caller's lock were held.
//   - locksafety: mutex hygiene — a Lock with no Unlock on any path,
//     `defer mu.Lock()` typos, and channel sends performed while a lock is
//     held. A lock copied by value is go vet's copylocks finding, not
//     crdb-lint's.
//   - maporder: iteration order of a map must not escape into observable
//     behavior (slice append without a later sort, channel send, trace or
//     metric or wire call, fault-site consult, formatted message); Go
//     randomizes map order per run, so an escaped order breaks same-seed
//     replay.
//   - metricnames: metric registration uses literal `subsystem.name` names
//     and never registers the same name twice.
//   - spanfinish: every trace span started in a function (StartSpan,
//     StartRoot, StartRemote, StartChild) is finished there or escapes to a
//     new owner; a leaked span never reaches the trace recorder.
//
// A finding can be suppressed with a justified escape hatch on the same line
// or the line above:
//
//	//lint:allow <check> <reason>
//
// A directive with an unknown check name or a missing reason is itself a
// violation, and so is a directive that suppresses nothing — the escape-hatch
// inventory cannot rot as checks tighten.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Checks is the set of known check names, in reporting order.
var Checks = []string{
	"deadsurface", "directtime", "faulterr", "globalrand", "gobimport",
	"lockorder", "lockscope", "locksafety", "maporder", "metricnames",
	"spanfinish",
}

// typedChecks are the checks that need the type-checked loader and the
// module call graph.
var typedChecks = map[string]bool{"deadsurface": true, "faulterr": true, "lockorder": true, "maporder": true}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Options configures a lint run.
type Options struct {
	// Checks restricts the run to the named checks; empty means all.
	// Directive validation (malformed or unused //lint:allow) always runs,
	// but an unused-allow finding is only reported when the check the
	// directive names is enabled.
	Checks []string
}

// enabledSet expands Options.Checks, validating the names.
func (o Options) enabledSet() (map[string]bool, error) {
	enabled := map[string]bool{}
	if len(o.Checks) == 0 {
		for _, c := range Checks {
			enabled[c] = true
		}
		return enabled, nil
	}
	for _, c := range o.Checks {
		if !knownCheck(c) {
			return nil, fmt.Errorf("lint: unknown check %q (known: %s)", c, strings.Join(Checks, ", "))
		}
		enabled[c] = true
	}
	return enabled, nil
}

// file is one parsed source file plus the metadata the checks need.
type file struct {
	// relPath is the slash-separated path relative to the lint root.
	relPath string
	// pkgDir is the slash-separated directory of relPath ("." for root).
	pkgDir string
	isTest bool
	fset   *token.FileSet
	ast    *ast.File
	// timeNames / randNames are the local import names bound to the "time"
	// and "math/rand" packages (empty when not imported; a package may be
	// imported more than once under aliases).
	timeNames map[string]bool
	randNames map[string]bool
}

// Tree is a parsed source tree ready to be checked.
type Tree struct {
	root  string
	fset  *token.FileSet
	files []*file

	// pkgs and info are populated lazily by typecheck() for the type-aware
	// checks: the in-tree packages in dependency order and the shared
	// type-checker output across all of them.
	pkgs []*Package
	info *types.Info
	// nested are the slash-separated root-relative directories that hold
	// their own go.mod: read as callers, never reported in.
	nested []string
}

// Load parses every .go file under root, skipping testdata, vendor, and
// hidden directories. Files that fail to parse are reported as errors.
func Load(root string) (*Tree, error) {
	t := &Tree{root: root, fset: token.NewFileSet()}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				if rel, err := filepath.Rel(root, path); err == nil {
					t.nested = append(t.nested, filepath.ToSlash(rel))
				}
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		af, err := parser.ParseFile(t.fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("lint: parse %s: %w", path, err)
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			rel = path
		}
		rel = filepath.ToSlash(rel)
		f := &file{
			relPath: rel,
			pkgDir:  pathDir(rel),
			isTest:  strings.HasSuffix(name, "_test.go"),
			fset:    t.fset,
			ast:     af,
		}
		f.timeNames = importNames(af, "time")
		f.randNames = importNames(af, "math/rand")
		t.files = append(t.files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// inNestedModule reports whether the root-relative path lies in a nested
// module.
func (t *Tree) inNestedModule(rel string) bool {
	for _, dir := range t.nested {
		if strings.HasPrefix(rel, dir+"/") {
			return true
		}
	}
	return false
}

func pathDir(rel string) string {
	if i := strings.LastIndexByte(rel, '/'); i >= 0 {
		return rel[:i]
	}
	return "."
}

// importNames returns every local name the file binds importPath to.
// Dot- and blank-imports contribute nothing.
func importNames(af *ast.File, importPath string) map[string]bool {
	names := map[string]bool{}
	for _, imp := range af.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != importPath {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name != "_" && imp.Name.Name != "." {
				names[imp.Name.Name] = true
			}
			continue
		}
		// Default name is the last path element.
		if i := strings.LastIndexByte(p, '/'); i >= 0 {
			names[p[i+1:]] = true
		} else {
			names[p] = true
		}
	}
	return names
}

// RunOpts lints the tree under root with the configured checks.
func RunOpts(root string, opts Options) ([]Diagnostic, error) {
	tree, err := Load(root)
	if err != nil {
		return nil, err
	}
	return tree.Check(opts)
}

// Check runs the enabled checks over the tree, applies //lint:allow
// directives, and returns the surviving diagnostics de-duplicated and sorted
// by position.
func (t *Tree) Check(opts Options) ([]Diagnostic, error) {
	enabled, err := opts.enabledSet()
	if err != nil {
		return nil, err
	}

	var diags []Diagnostic
	reg := newMetricNameIndex()
	for _, f := range t.files {
		if enabled["directtime"] {
			diags = append(diags, checkDirectTime(f)...)
		}
		if enabled["globalrand"] {
			diags = append(diags, checkGlobalRand(f)...)
		}
		if enabled["gobimport"] {
			diags = append(diags, checkGobImport(f)...)
		}
		if enabled["locksafety"] {
			diags = append(diags, checkLockSafety(f)...)
		}
		if enabled["lockscope"] {
			diags = append(diags, checkLockScope(f)...)
		}
		if enabled["metricnames"] {
			diags = append(diags, checkMetricNames(f, reg)...)
		}
		if enabled["spanfinish"] {
			diags = append(diags, checkSpanFinish(f)...)
		}
	}
	if enabled["metricnames"] {
		diags = append(diags, reg.duplicates()...)
	}

	typed := false
	for c := range typedChecks {
		typed = typed || enabled[c]
	}
	if typed {
		if err := t.typecheck(); err != nil {
			return nil, err
		}
		if enabled["deadsurface"] {
			diags = append(diags, checkDeadSurface(t)...)
		}
		cg := buildCallGraph(t)
		for _, fn := range cg.sortedFuncs() {
			if enabled["maporder"] {
				diags = append(diags, checkMapOrder(cg, fn)...)
			}
			if enabled["faulterr"] {
				diags = append(diags, checkFaultErr(cg, fn)...)
			}
		}
		if enabled["lockorder"] {
			diags = append(diags, checkLockOrder(cg)...)
		}
	}

	// De-duplicate: overlapping checks (or one check reached through two
	// call paths) may produce byte-identical findings.
	seen := map[Diagnostic]bool{}
	deduped := diags[:0]
	for _, d := range diags {
		if !seen[d] {
			seen[d] = true
			deduped = append(deduped, d)
		}
	}
	diags = deduped

	// Apply and validate //lint:allow directives, tracking which ones
	// actually suppress something.
	var out []Diagnostic
	allowed := map[allowKey]*allowDirective{}
	var directives []*allowDirective
	for _, f := range t.files {
		ds, dirs := parseAllows(f)
		out = append(out, ds...)
		for _, dir := range dirs {
			directives = append(directives, dir)
			for _, k := range dir.keys() {
				allowed[k] = dir
			}
		}
	}
	for _, d := range diags {
		if dir := allowed[allowKey{d.Pos.Filename, d.Pos.Line, d.Check}]; dir != nil {
			dir.used = true
			continue
		}
		out = append(out, d)
	}
	for _, dir := range directives {
		if !dir.used && enabled[dir.check] {
			out = append(out, Diagnostic{Pos: dir.pos, Check: "lintdirective",
				Message: fmt.Sprintf("lint:allow %s suppresses no diagnostic; delete the stale directive", dir.check)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return out, nil
}

type allowKey struct {
	filename string
	line     int
	check    string
}

// allowDirective is one well-formed //lint:allow, with its suppression
// footprint (its own line and the next) and whether it ever fired.
type allowDirective struct {
	pos   token.Position
	check string
	used  bool
}

func (a *allowDirective) keys() []allowKey {
	return []allowKey{
		{a.pos.Filename, a.pos.Line, a.check},
		{a.pos.Filename, a.pos.Line + 1, a.check},
	}
}

var allowRE = regexp.MustCompile(`^//lint:allow\s+(\S+)\s*(.*)$`)

// parseAllows extracts //lint:allow directives from f. A directive suppresses
// matching diagnostics on its own line and on the following line. Malformed
// directives (unknown check, missing reason) are returned as diagnostics.
func parseAllows(f *file) ([]Diagnostic, []*allowDirective) {
	var diags []Diagnostic
	var dirs []*allowDirective
	for _, cg := range f.ast.Comments {
		for _, c := range cg.List {
			m := allowRE.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := f.fset.Position(c.Pos())
			check, reason := m[1], strings.TrimSpace(m[2])
			if !knownCheck(check) {
				diags = append(diags, Diagnostic{Pos: pos, Check: "lintdirective",
					Message: fmt.Sprintf("lint:allow names unknown check %q (known: %s)", check, strings.Join(Checks, ", "))})
				continue
			}
			if reason == "" {
				diags = append(diags, Diagnostic{Pos: pos, Check: "lintdirective",
					Message: fmt.Sprintf("lint:allow %s needs a reason", check)})
				continue
			}
			if check == "deadsurface" && !deadSurfaceReasonRE.MatchString(reason) {
				diags = append(diags, Diagnostic{Pos: pos, Check: "lintdirective",
					Message: "lint:allow deadsurface reason must start with its kind: test seam:, deployment:, credential:, paper §N:, or roadmap:"})
				continue
			}
			dirs = append(dirs, &allowDirective{pos: pos, check: check})
		}
	}
	return diags, dirs
}

func knownCheck(name string) bool {
	for _, c := range Checks {
		if c == name {
			return true
		}
	}
	return false
}

// pkgCall matches a call of the form pkg.Sel(...) where pkg is one of the
// given local package names, and returns Sel. The empty string means no
// match.
func pkgCall(call *ast.CallExpr, pkgNames map[string]bool) string {
	if len(pkgNames) == 0 {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || !pkgNames[id.Name] {
		return ""
	}
	return sel.Sel.Name
}
