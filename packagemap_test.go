package crdbserverless

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// DESIGN.md §2 is the package map: every package under internal/ and cmd/
// has a row there, and every package or file a row names exists.
func TestDesignMapsEveryPackage(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(design)
	start := strings.Index(text, "\n## 2. ")
	end := strings.Index(text, "\n## 3. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §2 followed by a §3")
	}
	named := map[string]bool{}
	for _, m := range regexp.MustCompile("`((?:internal|cmd)/[^`\\s]+)`").FindAllStringSubmatch(text[start:end], -1) {
		path := m[1]
		if _, err := os.Stat(path); err != nil {
			t.Errorf("DESIGN.md §2 names %s, which does not exist", path)
		}
		if strings.HasSuffix(path, ".go") {
			path = filepath.Dir(path)
		}
		named[filepath.ToSlash(path)] = true
	}
	packages := map[string]bool{}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
				return filepath.SkipDir
			case !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go"):
				packages[filepath.ToSlash(filepath.Dir(path))] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for p := range packages {
		if !named[p] {
			t.Errorf("package %s has no row in DESIGN.md §2", p)
		}
	}
	for p := range named {
		if !packages[p] {
			t.Errorf("DESIGN.md §2 names %s, which is no package", p)
		}
	}
}

// designMaxLines bounds DESIGN.md: it states contracts, one section each,
// and what each change did and measured belongs in CHANGES.md.
const designMaxLines = 800

func TestDesignLength(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(design), "\n"); n > designMaxLines {
		t.Errorf("DESIGN.md has %d lines, want at most %d", n, designMaxLines)
	}
}

var (
	// designSection cites a section by number: "DESIGN.md §9".
	designSection = regexp.MustCompile(`DESIGN\.md,?\s+§(\d+)`)
	// titledSection cites a section or subsection by title:
	// §8's "Byte formats".
	titledSection = regexp.MustCompile(`§(\d+)'s\s+"([^"]+)"`)
	designHeading = regexp.MustCompile(`^##\s+(\d+)\.\s+(.+)$`)
	designSubhead = regexp.MustCompile(`^###\s+(.+)$`)
	// designTestName is a test, benchmark or fuzz target DESIGN.md cites in
	// backticks, perhaps with a subtest path: `TestX/case`.
	designTestName = regexp.MustCompile("`((?:Test|Benchmark|Fuzz)\\w*)(?:/[^`]*)?`")
)

// TestDesignCitations fails when a Go comment cites a DESIGN.md section
// that does not exist: every "DESIGN.md §N" needs a "## N." heading, and
// every §N's "Title" needs a heading of that title in section N. It also
// fails when DESIGN.md cites a test that does not exist: every `Test…`,
// `Benchmark…` and `Fuzz…` name it puts in backticks, less any subtest
// path, must be a function of some _test.go file in the tree.
func TestDesignCitations(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	titles := map[string]map[string]bool{} // section number -> its headings
	var section string
	for _, line := range strings.Split(string(design), "\n") {
		if m := designHeading.FindStringSubmatch(line); m != nil {
			section = m[1]
			titles[section] = map[string]bool{m[2]: true}
		} else if m := designSubhead.FindStringSubmatch(line); m != nil && section != "" {
			titles[section][m[1]] = true
		}
	}
	fset := token.NewFileSet()
	testFuncs := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (d.Name() == "testdata" || d.Name()[0] == '.'):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					testFuncs[fn.Name.Name] = true
				}
			}
		}
		for _, cg := range f.Comments {
			text := strings.Join(strings.Fields(cg.Text()), " ")
			pos := fset.Position(cg.Pos())
			for _, m := range designSection.FindAllStringSubmatch(text, -1) {
				if titles[m[1]] == nil {
					t.Errorf("%s cites DESIGN.md §%s, which has no \"## %s.\" heading", pos, m[1], m[1])
				}
			}
			for _, m := range titledSection.FindAllStringSubmatch(text, -1) {
				if !titles[m[1]][m[2]] {
					t.Errorf("%s cites §%s's %q, which DESIGN.md §%s has no heading for", pos, m[1], m[2], m[1])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range designTestName.FindAllStringSubmatch(string(design), -1) {
		if !testFuncs[m[1]] {
			t.Errorf("DESIGN.md cites %s, which no _test.go file defines", m[0])
		}
	}
}

// assemblyCalls are the constructors of the serving fabric's parts. Only New
// assembles them; a figure that builds its own measures a different system.
var assemblyCalls = map[string]bool{
	"kvserver.NewCluster": true,
	"kvserver.NewNode":    true,
	"orchestrator.New":    true,
	"proxy.New":           true,
	"autoscaler.New":      true,
}

// assemblyBuilders are the non-test files allowed to call them, each with its
// reason.
var assemblyBuilders = map[string]string{
	"crdbserverless.go":                 "New is the one assembly",
	"internal/experiments/chaos.go":     "chaos tests KV alone, with faults armed on its own nodes",
	"internal/experiments/kvscaling.go": "kvscaling tests KV alone, adding and draining its own nodes",
	"internal/experiments/fleetobs.go":  "fleetobs drives no SQL and caps its own observability plane",
}

// TestOneAssembly fails when a non-test file outside assemblyBuilders
// constructs a KV node, a KV cluster, an orchestrator, a proxy or an
// autoscaler: the paper's figures run on crdbserverless.New (and its
// baselines), not on a private second assembly.
func TestOneAssembly(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (d.Name() == "testdata" || d.Name() == "bench" || d.Name()[0] == '.'):
			// bench/ is its own module, and drives New from outside.
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			name := pkg.Name + "." + sel.Sel.Name
			if assemblyCalls[name] {
				if _, ok := assemblyBuilders[filepath.ToSlash(path)]; !ok {
					t.Errorf("%s calls %s: build the deployment with crdbserverless.New or NewBaseline", fset.Position(call.Pos()), name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
