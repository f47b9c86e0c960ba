package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"crdbserverless/internal/lint"
)

// wantRE matches golden-corpus markers. `// want check1 check2` expects those
// checks to fire on the marker's own line; `// want-next ...` expects them on
// the following line (used where a trailing comment would change the
// semantics of the line under test, e.g. inside a //lint:allow reason).
var wantRE = regexp.MustCompile(`// want(-next)? ([a-z ]+)$`)

// TestCorpus runs the full linter over the golden corpus and requires the
// diagnostics to match the `// want` markers exactly, in both directions:
// every marker must fire and nothing unmarked may fire.
func TestCorpus(t *testing.T) {
	root := filepath.Join("testdata", "src")

	want := map[string]bool{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			lineNo := i + 1
			if m[1] == "-next" {
				lineNo++
			}
			for _, check := range strings.Fields(m[2]) {
				want[fmt.Sprintf("%s:%d:%s", rel, lineNo, check)] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scanning corpus markers: %v", err)
	}
	if len(want) == 0 {
		t.Fatal("corpus has no // want markers; is testdata/src populated?")
	}

	diags, err := lint.RunOpts(root, lint.Options{})
	if err != nil {
		t.Fatalf("lint.RunOpts(%s): %v", root, err)
	}
	got := map[string]bool{}
	gotDetail := map[string]string{}
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil {
			rel = d.Pos.Filename
		}
		key := fmt.Sprintf("%s:%d:%s", filepath.ToSlash(rel), d.Pos.Line, d.Check)
		got[key] = true
		gotDetail[key] = d.Message
	}

	var missing, unexpected []string
	for k := range want {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	for k := range got {
		if !want[k] {
			unexpected = append(unexpected, fmt.Sprintf("%s (%s)", k, gotDetail[k]))
		}
	}
	sort.Strings(missing)
	sort.Strings(unexpected)
	for _, k := range missing {
		t.Errorf("marker did not fire: %s", k)
	}
	for _, k := range unexpected {
		t.Errorf("unmarked diagnostic: %s", k)
	}
}

// TestRepoTreeClean requires the live repository tree to be violation-free:
// every real finding has been migrated or carries a justified //lint:allow.
func TestRepoTreeClean(t *testing.T) {
	diags, err := lint.RunOpts(filepath.Join("..", ".."), lint.Options{})
	if err != nil {
		t.Fatalf("lint.RunOpts(repo root): %v", err)
	}
	for _, d := range diags {
		t.Errorf("live tree violation: %s", d)
	}
}

// deadSurfaceAllows is the number of //lint:allow deadsurface directives in
// the live tree. Each one keeps surface that no program reaches, so a new
// one is an edit here, made with the reason it gives.
const deadSurfaceAllows = 28

// TestDeadSurfaceAllowInventory pins deadSurfaceAllows.
func TestDeadSurfaceAllowInventory(t *testing.T) {
	root := filepath.Join("..", "..")
	n := 0
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "//lint:allow deadsurface ") {
				n++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != deadSurfaceAllows {
		t.Errorf("%d deadsurface allows in the tree, want %d", n, deadSurfaceAllows)
	}
}

// TestChecksFilter runs only maporder over the corpus and requires that no
// other check's diagnostics leak through (directive findings for enabled
// checks stay, by design).
func TestChecksFilter(t *testing.T) {
	root := filepath.Join("testdata", "src")
	diags, err := lint.RunOpts(root, lint.Options{Checks: []string{"maporder"}})
	if err != nil {
		t.Fatalf("RunOpts: %v", err)
	}
	sawMapOrder := false
	for _, d := range diags {
		switch d.Check {
		case "maporder":
			sawMapOrder = true
		case "lintdirective":
			// malformed or unused directives are still reported
		default:
			t.Errorf("check filter leaked a %s diagnostic: %s", d.Check, d)
		}
	}
	if !sawMapOrder {
		t.Error("no maporder diagnostics from the corpus with the check enabled")
	}
}

// TestChecksFilterUnknown rejects a check name that does not exist.
func TestChecksFilterUnknown(t *testing.T) {
	_, err := lint.RunOpts(filepath.Join("testdata", "src"), lint.Options{Checks: []string{"nosuchcheck"}})
	if err == nil || !strings.Contains(err.Error(), "nosuchcheck") {
		t.Fatalf("err = %v, want an unknown-check error naming nosuchcheck", err)
	}
}

// TestUnderAny covers the module-root widening filter.
func TestUnderAny(t *testing.T) {
	root := "repo"
	for _, tc := range []struct {
		file string
		subs []string
		want bool
	}{
		{"repo/internal/lint/a.go", []string{"."}, true},
		{"repo/internal/lint/a.go", []string{"internal/lint"}, true},
		{"repo/internal/lint/a.go", []string{"internal"}, true},
		{"repo/internal/lint/a.go", []string{"cmd"}, false},
		{"repo/internal/linter/a.go", []string{"internal/lint"}, false},
	} {
		if got := underAny(root, tc.file, tc.subs); got != tc.want {
			t.Errorf("underAny(%q, %v) = %v, want %v", tc.file, tc.subs, got, tc.want)
		}
	}
}
