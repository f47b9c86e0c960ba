// Command crdb-lint is the repository's static-analysis pass. It enforces
// the determinism, lock-safety, lock-ordering, fault-propagation, and
// metric-naming invariants every component must uphold for the simulator and
// the paper reproductions to stay reproducible, and it reports surface no
// program reaches (deadsurface). It is part of tier-1 verification:
//
//	go run ./cmd/crdb-lint ./...
//
// Flags:
//
//	-checks=a,b   run only the named checks (default: all)
//	-json         emit findings as a JSON array instead of text lines
//
// Exit status: 0 clean, 1 violations found, 2 operational error.
// See internal/lint for the checks and the //lint:allow escape hatch.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"crdbserverless/internal/lint"
)

// jsonDiagnostic is the -json wire shape, one object per finding.
type jsonDiagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	checksFlag := flag.String("checks", "", "comma-separated checks to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: crdb-lint [flags] [dir|dir/...]...\n\nchecks: %s\n", strings.Join(lint.Checks, ", "))
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	var opts lint.Options
	if *checksFlag != "" {
		for _, c := range strings.Split(*checksFlag, ",") {
			if c = strings.TrimSpace(c); c != "" {
				opts.Checks = append(opts.Checks, c)
			}
		}
	}

	// The type-aware checks need the whole module (cross-package call graph),
	// so a root inside a module widens to the module root; the final
	// diagnostics are filtered back down to the requested subpaths.
	subpaths := map[string][]string{} // widened root -> requested rel subpaths ("." = all)
	var order []string
	for _, a := range args {
		a = strings.TrimSuffix(a, "...")
		a = strings.TrimSuffix(a, "/")
		if a == "" || a == "." || a == "./" {
			a = "."
		}
		root, sub := a, "."
		if mod := moduleRootFor(a); mod != "" {
			root = mod
			if rel, err := filepath.Rel(mod, a); err == nil {
				sub = filepath.ToSlash(rel)
			}
		}
		if _, seen := subpaths[root]; !seen {
			order = append(order, root)
		}
		subpaths[root] = append(subpaths[root], sub)
	}

	exit := 0
	var all []jsonDiagnostic
	for _, root := range order {
		diags, err := lint.RunOpts(root, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crdb-lint: %v\n", err)
			os.Exit(2)
		}
		for _, d := range diags {
			if !underAny(root, d.Pos.Filename, subpaths[root]) {
				continue
			}
			exit = 1
			if *jsonOut {
				all = append(all, jsonDiagnostic{
					File:    filepath.ToSlash(d.Pos.Filename),
					Line:    d.Pos.Line,
					Col:     d.Pos.Column,
					Check:   d.Check,
					Message: d.Message,
				})
			} else {
				fmt.Println(d)
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if all == nil {
			all = []jsonDiagnostic{}
		}
		if err := enc.Encode(all); err != nil {
			fmt.Fprintf(os.Stderr, "crdb-lint: %v\n", err)
			os.Exit(2)
		}
	}
	os.Exit(exit)
}

// underAny reports whether a diagnostic's file falls under one of the
// requested subpaths of root ("." accepts everything).
func underAny(root, filename string, subs []string) bool {
	rel, err := filepath.Rel(root, filename)
	if err != nil {
		return true
	}
	rel = filepath.ToSlash(rel)
	for _, sub := range subs {
		if sub == "." || rel == sub || strings.HasPrefix(rel, sub+"/") {
			return true
		}
	}
	return false
}

// moduleRootFor walks from dir toward the filesystem root looking for a
// go.mod, returning the containing directory (or "" when dir is not inside a
// module). Linting a subdirectory still type-checks the whole module so
// cross-package imports resolve.
func moduleRootFor(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return ""
	}
	for cur := abs; ; {
		if _, err := os.Stat(filepath.Join(cur, "go.mod")); err == nil {
			rel, err := filepath.Rel(mustGetwd(), cur)
			if err != nil {
				return cur
			}
			return filepath.ToSlash(rel)
		}
		parent := filepath.Dir(cur)
		if parent == cur {
			return ""
		}
		cur = parent
	}
}

func mustGetwd() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	return wd
}
