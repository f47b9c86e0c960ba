package sql

import "fmt"

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// ColumnType enumerates supported column types.
type ColumnType int

// Supported column types.
const (
	TypeInt ColumnType = iota
	TypeString
	TypeFloat
	TypeBool
	// TypeNull is the kind of the NULL Datum, and no column's type.
	TypeNull
)

// String implements fmt.Stringer.
func (t ColumnType) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeString:
		return "STRING"
	case TypeFloat:
		return "FLOAT"
	case TypeBool:
		return "BOOL"
	case TypeNull:
		return "NULL"
	default:
		return fmt.Sprintf("ColumnType(%d)", int(t))
	}
}

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name string
	Type ColumnType
}

// CreateTable is CREATE TABLE name (cols..., PRIMARY KEY (...)).
type CreateTable struct {
	Name       string
	Columns    []ColumnDef
	PrimaryKey []string
}

// CreateIndex is CREATE INDEX name ON table (cols...).
type CreateIndex struct {
	Name    string
	Table   string
	Columns []string
}

// DropTable is DROP TABLE name.
type DropTable struct{ Name string }

// Insert is INSERT INTO table [(cols)] VALUES (...), (...).
type Insert struct {
	Table   string
	Columns []string // empty = table order
	Rows    [][]Expr
}

// Select is a single-table or two-table (inner join) select.
type Select struct {
	Exprs    []SelectExpr
	Table    string
	TableAs  string
	Join     *JoinClause
	Where    Expr
	GroupBy  []Expr
	OrderBy  []OrderClause
	Limit    int64 // -1 = none
	Distinct bool
}

// SelectExpr is one projection, possibly aliased; Star marks "*".
type SelectExpr struct {
	Expr Expr
	As   string
	Star bool
}

// JoinClause is JOIN table [AS alias] ON cond.
type JoinClause struct {
	Table string
	As    string
	On    Expr
}

// OrderClause is one ORDER BY term.
type OrderClause struct {
	Expr Expr
	Desc bool
}

// Update is UPDATE table SET col=expr,... [WHERE].
type Update struct {
	Table string
	Set   []SetClause
	Where Expr
}

// SetClause is one col=expr assignment.
type SetClause struct {
	Column string
	Expr   Expr
}

// Delete is DELETE FROM table [WHERE].
type Delete struct {
	Table string
	Where Expr
}

// BeginTxn, CommitTxn, RollbackTxn control explicit transactions.
type BeginTxn struct{}

// CommitTxn commits the session's explicit transaction.
type CommitTxn struct{}

// RollbackTxn aborts the session's explicit transaction.
type RollbackTxn struct{}

// SetVar is SET name = value (session settings).
type SetVar struct {
	Name  string
	Value Expr
}

// ShowTables lists the tenant's tables.
type ShowTables struct{}

func (*CreateTable) stmt() {}
func (*CreateIndex) stmt() {}
func (*DropTable) stmt()   {}
func (*Insert) stmt()      {}
func (*Select) stmt()      {}
func (*Update) stmt()      {}
func (*Delete) stmt()      {}
func (*BeginTxn) stmt()    {}
func (*CommitTxn) stmt()   {}
func (*RollbackTxn) stmt() {}
func (*SetVar) stmt()      {}
func (*ShowTables) stmt()  {}

// Expr is an expression tree node.
type Expr interface{ expr() }

// Literal is a constant value (int64, float64, string, bool, or nil).
type Literal struct{ Value interface{} }

// ColumnRef references a column, optionally qualified by table/alias.
type ColumnRef struct {
	Table  string
	Column string
}

// BinaryExpr applies an operator to two operands.
type BinaryExpr struct {
	Op          string // = != < <= > >= + - * / AND OR
	Left, Right Expr
}

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op      string // NOT -
	Operand Expr
}

// FuncExpr is an aggregate call: COUNT(*|expr), SUM, AVG, MIN, MAX.
type FuncExpr struct {
	Name string
	Arg  Expr // nil for COUNT(*)
	Star bool
}

// Placeholder is $N in a prepared statement.
type Placeholder struct{ Index int } // 1-based

func (*Literal) expr()     {}
func (*ColumnRef) expr()   {}
func (*BinaryExpr) expr()  {}
func (*UnaryExpr) expr()   {}
func (*FuncExpr) expr()    {}
func (*Placeholder) expr() {}
