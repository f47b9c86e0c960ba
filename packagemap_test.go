package crdbserverless

import (
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
