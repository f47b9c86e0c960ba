package sql

import (
	"fmt"
)

// evalEnv resolves column references during expression evaluation. Columns
// may be qualified by table name or alias.
type evalEnv struct {
	// cols maps "column" and "qualifier.column" to datum positions.
	cols map[string]int
	row  []Datum
	args []Datum // placeholder values
}

// lookup resolves a column reference.
func (env *evalEnv) lookup(ref *ColumnRef) (Datum, error) {
	name := ref.Column
	if ref.Table != "" {
		name = ref.Table + "." + ref.Column
	}
	pos, ok := env.cols[name]
	if !ok {
		return Datum{}, fmt.Errorf("sql: column %q not found", name)
	}
	return env.row[pos], nil
}

// evalExpr evaluates an expression against the environment.
func evalExpr(env *evalEnv, e Expr) (Datum, error) {
	switch x := e.(type) {
	case *Literal:
		return datumFromLiteral(x.Value)
	case *ColumnRef:
		return env.lookup(x)
	case *Placeholder:
		if x.Index < 1 || x.Index > len(env.args) {
			return Datum{}, fmt.Errorf("sql: missing value for placeholder $%d", x.Index)
		}
		return env.args[x.Index-1], nil
	case *UnaryExpr:
		v, err := evalExpr(env, x.Operand)
		if err != nil {
			return Datum{}, err
		}
		switch x.Op {
		case "NOT":
			if v.Kind == TypeNull {
				return DNull, nil
			}
			if v.Kind != TypeBool {
				return Datum{}, fmt.Errorf("sql: NOT requires a boolean")
			}
			return DBool(!v.isTrue()), nil
		case "-":
			switch {
			case v.Kind == TypeNull:
				return DNull, nil
			case v.Kind == TypeInt:
				return DInt(-v.I), nil
			case v.Kind == TypeFloat:
				return DFloat(-v.F), nil
			default:
				return Datum{}, fmt.Errorf("sql: cannot negate %s", v.Kind)
			}
		default:
			return Datum{}, fmt.Errorf("sql: unknown unary operator %s", x.Op)
		}
	case *BinaryExpr:
		return evalBinary(env, x)
	case *FuncExpr:
		return Datum{}, fmt.Errorf("sql: aggregate %s not allowed here", x.Name)
	default:
		return Datum{}, fmt.Errorf("sql: unsupported expression %T", e)
	}
}

func evalBinary(env *evalEnv, x *BinaryExpr) (Datum, error) {
	// Short-circuit logical operators.
	if x.Op == "AND" || x.Op == "OR" {
		l, err := evalExpr(env, x.Left)
		if err != nil {
			return Datum{}, err
		}
		lb := l.isTrue()
		if x.Op == "AND" && !lb {
			return DBool(false), nil
		}
		if x.Op == "OR" && lb {
			return DBool(true), nil
		}
		r, err := evalExpr(env, x.Right)
		if err != nil {
			return Datum{}, err
		}
		return DBool(r.isTrue()), nil
	}

	l, err := evalExpr(env, x.Left)
	if err != nil {
		return Datum{}, err
	}
	r, err := evalExpr(env, x.Right)
	if err != nil {
		return Datum{}, err
	}
	if op, ok := cmpOpOf(x.Op); ok {
		return DBool(op.holds(l, r)), nil
	}
	switch x.Op {
	case "+", "-", "*", "/":
		return evalArith(x.Op, l, r)
	default:
		return Datum{}, fmt.Errorf("sql: unknown operator %s", x.Op)
	}
}

// cmpOp is a comparison operator. WHERE evaluates its comparisons with
// holds, and so does the KV node with a pushed-down scan's conditions
// (pushdown.go), so the two agree by construction.
type cmpOp byte

// Comparison operators.
const (
	opEq cmpOp = iota
	opNe
	opLt
	opLe
	opGt
	opGe
)

// cmpOpOf returns the comparison operator s spells.
func cmpOpOf(s string) (cmpOp, bool) {
	switch s {
	case "=":
		return opEq, true
	case "!=":
		return opNe, true
	case "<":
		return opLt, true
	case "<=":
		return opLe, true
	case ">":
		return opGt, true
	case ">=":
		return opGe, true
	default:
		return 0, false
	}
}

// flip returns the operator that compares the operands the other way round:
// `l o r` is `r o.flip() l`.
func (o cmpOp) flip() cmpOp {
	switch o {
	case opLt:
		return opGt
	case opLe:
		return opGe
	case opGt:
		return opLt
	case opGe:
		return opLe
	default:
		return o
	}
}

// holds reports whether `l o r` is true: never when either side is NULL,
// otherwise as Datum.Compare orders l and r. WHERE calls it on the values
// it evaluates and the KV node's fold on the columns it decodes.
func (o cmpOp) holds(l, r Datum) bool {
	if l.Kind == TypeNull || r.Kind == TypeNull {
		return false
	}
	return o.test(l.Compare(r))
}

// test reports whether o holds between two values that compare c.
func (o cmpOp) test(c int) bool {
	switch o {
	case opEq:
		return c == 0
	case opNe:
		return c != 0
	case opLt:
		return c < 0
	case opLe:
		return c <= 0
	case opGt:
		return c > 0
	default:
		return c >= 0
	}
}

func evalArith(op string, l, r Datum) (Datum, error) {
	if l.Kind == TypeNull || r.Kind == TypeNull {
		return DNull, nil
	}
	// String concatenation via +.
	if op == "+" && l.Kind == TypeString && r.Kind == TypeString {
		return DString(l.S + r.S), nil
	}
	if !l.isNumeric() || !r.isNumeric() {
		return Datum{}, fmt.Errorf("sql: %s requires numeric operands", op)
	}
	if l.Kind == TypeInt && r.Kind == TypeInt && op != "/" {
		switch op {
		case "+":
			return DInt(l.I + r.I), nil
		case "-":
			return DInt(l.I - r.I), nil
		case "*":
			return DInt(l.I * r.I), nil
		}
	}
	a, b := l.asFloat(), r.asFloat()
	switch op {
	case "+":
		return DFloat(a + b), nil
	case "-":
		return DFloat(a - b), nil
	case "*":
		return DFloat(a * b), nil
	case "/":
		if b == 0 {
			return Datum{}, fmt.Errorf("sql: division by zero")
		}
		return DFloat(a / b), nil
	}
	return Datum{}, fmt.Errorf("sql: unknown arithmetic operator %s", op)
}

// exprHasAggregate reports whether the expression contains an aggregate call.
func exprHasAggregate(e Expr) bool {
	switch x := e.(type) {
	case *FuncExpr:
		return true
	case *BinaryExpr:
		return exprHasAggregate(x.Left) || exprHasAggregate(x.Right)
	case *UnaryExpr:
		return exprHasAggregate(x.Operand)
	default:
		return false
	}
}

// hasAggregate reports whether a SELECT aggregates: it has a GROUP BY, or a
// select expression calls an aggregate.
func hasAggregate(s *Select) bool {
	if len(s.GroupBy) > 0 {
		return true
	}
	for _, se := range s.Exprs {
		if !se.Star && exprHasAggregate(se.Expr) {
			return true
		}
	}
	return false
}

// conjuncts flattens an AND tree.
func conjuncts(e Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		return append(conjuncts(b.Left), conjuncts(b.Right)...)
	}
	if e == nil {
		return nil
	}
	return []Expr{e}
}

// constantValue evaluates an expression with no column references (literals,
// placeholders, arithmetic on them). ok is false if columns are referenced.
func constantValue(e Expr, args []Datum) (Datum, bool) {
	switch x := e.(type) {
	case *ColumnRef:
		return Datum{}, false
	case *FuncExpr:
		return Datum{}, false
	case *BinaryExpr:
		if _, ok := constantValue(x.Left, args); !ok {
			return Datum{}, false
		}
		if _, ok := constantValue(x.Right, args); !ok {
			return Datum{}, false
		}
	case *UnaryExpr:
		if _, ok := constantValue(x.Operand, args); !ok {
			return Datum{}, false
		}
	}
	env := &evalEnv{args: args}
	d, err := evalExpr(env, e)
	if err != nil {
		return Datum{}, false
	}
	return d, true
}
