package sql

import (
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// testStatements returns the SQL text spelled as string literals (or sums
// of them) in the package's test files: the statements the tests run,
// finished and unfinished.
func testStatements(tb testing.TB, files ...string) []string {
	tb.Helper()
	var out []string
	fset := gotoken.NewFileSet()
	for _, name := range files {
		f, err := goparser.ParseFile(fset, name, nil, 0)
		if err != nil {
			tb.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			if s, ok := stringConstant(e); ok && startsWithStatement(s) {
				out = append(out, s)
			}
			return true
		})
	}
	return out
}

// stringConstant folds a string literal or a sum of them.
func stringConstant(e ast.Expr) (string, bool) {
	switch x := e.(type) {
	case *ast.BasicLit:
		if x.Kind != gotoken.STRING {
			return "", false
		}
		s, err := strconv.Unquote(x.Value)
		return s, err == nil
	case *ast.BinaryExpr:
		if x.Op != gotoken.ADD {
			return "", false
		}
		l, ok := stringConstant(x.X)
		if !ok {
			return "", false
		}
		r, ok := stringConstant(x.Y)
		return l + r, ok
	case *ast.ParenExpr:
		return stringConstant(x.X)
	}
	return "", false
}

func startsWithStatement(s string) bool {
	word, _, _ := strings.Cut(strings.TrimSpace(s), " ")
	switch strings.ToUpper(word) {
	case "SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "BEGIN", "COMMIT", "ROLLBACK", "SET", "SHOW":
		return true
	}
	return false
}

// FuzzParse: no input makes the lexer or parser panic, and an accepted input
// parses to the same AST every time. One cached AST serves every session of
// an executor, so a parse must be a function of the text alone.
func FuzzParse(f *testing.F) {
	for _, q := range testStatements(f, "sql_test.go", "scan_test.go", "pushdown_test.go") {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, in string) {
		stmt, err := Parse(in)
		again, errAgain := Parse(in)
		if (err == nil) != (errAgain == nil) {
			t.Fatalf("%q: parses with %v, then with %v", in, err, errAgain)
		}
		if err != nil {
			if err.Error() != errAgain.Error() {
				t.Fatalf("%q: fails with %v, then with %v", in, err, errAgain)
			}
			return
		}
		if !reflect.DeepEqual(stmt, again) {
			t.Fatalf("%q parses to %#v, then to %#v", in, stmt, again)
		}
	})
}

// The fuzz seeds are the statements the tests run.
func TestFuzzParseSeeds(t *testing.T) {
	seeds := testStatements(t, "sql_test.go", "scan_test.go", "pushdown_test.go")
	parsed := 0
	for _, q := range seeds {
		if _, err := Parse(q); err == nil {
			parsed++
		}
	}
	if len(seeds) < 100 || parsed < 80 {
		t.Fatalf("%d seed statements, %d of them parse; want at least 100 and 80", len(seeds), parsed)
	}
}
