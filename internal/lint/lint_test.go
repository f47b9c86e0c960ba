package lint

import (
	"go/parser"
	"go/token"
	"testing"
)

func parseSrc(t *testing.T, src string) (*token.FileSet, *file) {
	t.Helper()
	fset := token.NewFileSet()
	af, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	f := &file{relPath: "src.go", pkgDir: ".", fset: fset, ast: af}
	f.timeNames = importNames(af, "time")
	f.randNames = importNames(af, "math/rand")
	return fset, f
}

func TestImportNames(t *testing.T) {
	_, f := parseSrc(t, `package p

import (
	"time"

	clk "time"
	_ "math/rand"
)
`)
	if !f.timeNames["time"] || !f.timeNames["clk"] || len(f.timeNames) != 2 {
		t.Errorf("timeNames = %v, want {time, clk}", f.timeNames)
	}
	if len(f.randNames) != 0 {
		t.Errorf("randNames = %v, want empty (blank import)", f.randNames)
	}
	if got := importNames(f.ast, "sync"); len(got) != 0 {
		t.Errorf("sync names = %v, want empty (not imported)", got)
	}
}

func TestMutexRecvName(t *testing.T) {
	for name, want := range map[string]bool{
		"mu":       true,
		"mtx":      true,
		"lock":     true,
		"stateMu":  true,
		"poolMtx":  true,
		"mapMutex": true,
		"lm":       false,
		"l":        false,
		"q":        false,
		"lockMgr":  false,
		"Mud":      false,
	} {
		if got := mutexRecvName(name); got != want {
			t.Errorf("mutexRecvName(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestParseAllows(t *testing.T) {
	_, f := parseSrc(t, `package p

import "time"

func f() {
	_ = time.Now() //lint:allow directtime wall clock wanted here
	//lint:allow directtime reason on the line above
	_ = time.Now()
	//lint:allow nosuch broken
	//lint:allow globalrand
}
`)
	diags, dirs := parseAllows(f)
	if len(diags) != 2 {
		t.Fatalf("got %d directive diagnostics, want 2: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Check != "lintdirective" {
			t.Errorf("diagnostic check = %q, want lintdirective", d.Check)
		}
	}
	allows := map[allowKey]bool{}
	for _, dir := range dirs {
		for _, k := range dir.keys() {
			allows[k] = true
		}
	}
	// Same-line allow (line 6) and line-above allow (directive on 7 covers 8).
	for _, line := range []int{6, 7, 8} {
		if !allows[allowKey{"src.go", line, "directtime"}] {
			t.Errorf("line %d not covered by directtime allow", line)
		}
	}
	if allows[allowKey{"src.go", 10, "globalrand"}] {
		t.Error("reason-less directive must not register an allow")
	}
}

func TestMetricNameRE(t *testing.T) {
	for name, want := range map[string]bool{
		"proxy.migrations":         true,
		"kv.raft.apply_latency":    true,
		"orchestrator.pods_warm":   true,
		"nodots":                   false,
		"Proxy.Migrations":         false,
		"proxy..double":            false,
		"proxy.":                   false,
		".leading":                 false,
		"proxy.9starts_with_digit": false,
	} {
		if got := metricNameRE.MatchString(name); got != want {
			t.Errorf("metricNameRE(%q) = %v, want %v", name, got, want)
		}
	}
}
