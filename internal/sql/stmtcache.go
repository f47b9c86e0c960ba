package sql

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// stmtCacheSize bounds the statement texts an executor keeps parsed. A client
// that spells its values into the text instead of passing placeholders sends
// a new text each time; the cache is emptied when it fills and parses again
// what comes next.
const stmtCacheSize = 256

// Prepared is a statement text parsed once by an executor and shared by every
// session on it. Parse is a pure function of the text, and nothing modifies
// the AST it returns, so one AST serves every execution. The plan is built on
// first execution and replaced, never modified, when the catalog returns a
// different descriptor for a table it reads.
type Prepared struct {
	stmt Statement
	plan atomic.Pointer[plan]
	// text is the map's key for the entry, kept so a lookup by bytes can
	// return it (the first entry's is firstText).
	text string
}

// stmtCache maps statement texts to their parses. The first text an
// executor parses is kept in first, outside the map, and stays there: a pod
// resumed to answer one query makes no map.
type stmtCache struct {
	sync.RWMutex
	firstText string // "" until the first text parses
	first     Prepared
	m         map[string]*Prepared
}

// lookup returns text's entry, or nil. The caller holds the lock.
func (c *stmtCache) lookup(text string) *Prepared {
	if c.firstText != "" && c.firstText == text {
		return &c.first
	}
	return c.m[text]
}

// cachedText returns the text the cache holds equal to b, if it holds one.
// Looking b up copies nothing: a connection's decoder takes the cache's
// string instead of copying a text it has seen before.
func (c *stmtCache) cachedText(b []byte) (string, bool) {
	c.RLock()
	defer c.RUnlock()
	if c.firstText != "" && c.firstText == string(b) {
		return c.firstText, true
	}
	if p, ok := c.m[string(b)]; ok {
		return p.text, true
	}
	return "", false
}

// Prepare returns the executor's parse of text, parsing it on first sight.
func (e *Executor) Prepare(text string) (*Prepared, error) {
	c := &e.stmts
	c.RLock()
	p := c.lookup(text)
	c.RUnlock()
	if p != nil {
		return p, nil
	}
	stmt, err := Parse(text)
	if err != nil {
		return nil, err
	}
	c.Lock()
	defer c.Unlock()
	if p := c.lookup(text); p != nil {
		return p, nil // another session parsed it first
	}
	switch {
	case c.firstText == "":
		c.first.stmt = stmt
		c.firstText = text
		return &c.first, nil
	case c.m == nil:
		c.m = make(map[string]*Prepared)
	case len(c.m) >= stmtCacheSize-1:
		clear(c.m)
	}
	p = &Prepared{stmt: stmt, text: text}
	c.m[text] = p
	return p, nil
}

// plan is what running a statement needs beyond its AST, worked out from the
// descriptors the catalog returned when it was built. It serves for as long
// as the catalog returns the same descriptor pointers: DDL always installs a
// new descriptor, so a plan never outlives the schema it was built for.
type plan struct {
	desc, joinDesc *TableDescriptor // joinDesc is nil without a JOIN
	// cols maps column names, bare and qualified, to row positions. A name
	// that could mean two positions is ambiguous and left out.
	cols map[string]int
	// where and joinWhere are WHERE's conjuncts that compare a column of desc
	// (of joinDesc) with a constant expression, in statement order.
	where, joinWhere []colCond
	// colOrder is an INSERT's target column offset for each VALUES entry.
	colOrder []int
	// push is an aggregating SELECT's aggregation as the KV node computes
	// it, nil when it cannot be pushed down (pushdown.go).
	push *aggPush
	// columns names a plain (non-aggregating) SELECT's result columns.
	columns []string
}

// colCond is a WHERE conjunct `column OP constant`, or `constant OP column`
// with OP flipped: the shape the point, index and push-down plans read. The
// constant is evaluated per execution, since its placeholders change.
type colCond struct {
	col int
	op  cmpOp
	val Expr
}

// planFor returns p's plan for the descriptors the catalog holds now,
// building it if they are not the ones the cached plan was built for.
func (e *Executor) planFor(ctx context.Context, p *Prepared) (*plan, error) {
	var table, joinTable string
	switch s := p.stmt.(type) {
	case *Select:
		table = s.Table
		if s.Join != nil {
			joinTable = s.Join.Table
		}
	case *Insert:
		table = s.Table
	case *Update:
		table = s.Table
	case *Delete:
		table = s.Table
	}
	desc, err := e.catalog.Lookup(ctx, table)
	if err != nil {
		return nil, err
	}
	var joinDesc *TableDescriptor
	if joinTable != "" {
		if joinDesc, err = e.catalog.Lookup(ctx, joinTable); err != nil {
			return nil, err
		}
	}
	if pl := p.plan.Load(); pl != nil && pl.desc == desc && pl.joinDesc == joinDesc {
		return pl, nil
	}
	pl, err := buildPlan(p.stmt, desc, joinDesc)
	if err != nil {
		return nil, err
	}
	p.plan.Store(pl)
	return pl, nil
}

func buildPlan(stmt Statement, desc, joinDesc *TableDescriptor) (*plan, error) {
	pl := &plan{desc: desc, joinDesc: joinDesc}
	switch s := stmt.(type) {
	case *Insert:
		pl.colOrder = make([]int, 0, len(desc.Columns))
		if len(s.Columns) == 0 {
			for i := range desc.Columns {
				pl.colOrder = append(pl.colOrder, i)
			}
			break
		}
		for _, name := range s.Columns {
			i := desc.ColumnIndex(name)
			if i < 0 {
				return nil, fmt.Errorf("sql: column %q not in table %s", name, s.Table)
			}
			pl.colOrder = append(pl.colOrder, i)
		}
	case *Update:
		pl.cols, _ = bindColumns(desc, "", nil, "")
		pl.where = colConds(desc, "", s.Where)
	case *Delete:
		pl.cols, _ = bindColumns(desc, "", nil, "")
		pl.where = colConds(desc, "", s.Where)
	case *Select:
		var joinAs string
		if s.Join != nil {
			joinAs = s.Join.As
		}
		var ambiguous map[string]bool
		pl.cols, ambiguous = bindColumns(desc, s.TableAs, joinDesc, joinAs)
		if len(ambiguous) > 0 {
			if err := checkAmbiguity(s, pl.cols, ambiguous); err != nil {
				return nil, err
			}
		}
		pl.where = colConds(desc, s.TableAs, s.Where)
		if joinDesc != nil {
			pl.joinWhere = colConds(joinDesc, joinAs, s.Where)
		} else if hasAggregate(s) {
			pl.push = newAggPush(s, pl.cols, pl.where)
		}
		if !hasAggregate(s) {
			pl.columns = projectionColumns(s, desc, joinDesc)
		}
	}
	return pl, nil
}

// bindColumns maps the names of a statement's columns to their positions in
// its rows: desc's columns, then joinDesc's (nil for one table), each bare
// and qualified by its table's name and by its alias. A name that would map
// to two positions is ambiguous: it is returned in ambiguous and left out of
// cols, so that no reference to it silently reads one of the two.
func bindColumns(desc *TableDescriptor, alias string, joinDesc *TableDescriptor, joinAlias string) (cols map[string]int, ambiguous map[string]bool) {
	cols = make(map[string]int)
	bind := func(name string, pos int) {
		if prev, ok := cols[name]; ok && prev != pos {
			if ambiguous == nil {
				ambiguous = make(map[string]bool)
			}
			ambiguous[name] = true
			return
		}
		cols[name] = pos
	}
	bindTable := func(desc *TableDescriptor, alias string, base int) {
		for i, c := range desc.Columns {
			bind(c.Name, base+i)
			bind(desc.Name+"."+c.Name, base+i)
			if alias != "" {
				bind(alias+"."+c.Name, base+i)
			}
		}
	}
	bindTable(desc, alias, 0)
	if joinDesc != nil {
		bindTable(joinDesc, joinAlias, len(desc.Columns))
	}
	for name := range ambiguous {
		delete(cols, name)
	}
	return cols, ambiguous
}

// checkAmbiguity fails a SELECT that names an ambiguous column anywhere it is
// evaluated against the source rows. A non-aggregate ORDER BY term that names
// a select alias reads the alias; an aggregate's ORDER BY names output
// columns only.
func checkAmbiguity(s *Select, cols map[string]int, ambiguous map[string]bool) error {
	var check func(Expr) error
	check = func(e Expr) error {
		switch x := e.(type) {
		case *ColumnRef:
			name := x.Column
			if x.Table != "" {
				name = x.Table + "." + x.Column
			}
			if ambiguous[name] {
				return fmt.Errorf("sql: column reference %q is ambiguous", name)
			}
		case *BinaryExpr:
			if err := check(x.Left); err != nil {
				return err
			}
			return check(x.Right)
		case *UnaryExpr:
			return check(x.Operand)
		case *FuncExpr:
			if x.Arg != nil {
				return check(x.Arg)
			}
		}
		return nil
	}
	exprs := []Expr{s.Where}
	if s.Join != nil {
		exprs = append(exprs, s.Join.On)
	}
	for _, se := range s.Exprs {
		if !se.Star {
			exprs = append(exprs, se.Expr)
		}
	}
	exprs = append(exprs, s.GroupBy...)
	if !hasAggregate(s) {
		for _, oc := range s.OrderBy {
			exprs = append(exprs, resolveOrderTerm(oc, s, cols))
		}
	}
	for _, e := range exprs {
		if err := check(e); err != nil {
			return err
		}
	}
	return nil
}

// colConds lists where's conjuncts that compare a column of desc, named bare
// or through the table's name or alias, with a constant expression.
func colConds(desc *TableDescriptor, alias string, where Expr) []colCond {
	var out []colCond
	for _, c := range conjuncts(where) {
		b, ok := c.(*BinaryExpr)
		if !ok {
			continue
		}
		op, ok := cmpOpOf(b.Op)
		if !ok {
			continue
		}
		if col, ok := columnOf(desc, alias, b.Left); ok && isConstant(b.Right) {
			out = append(out, colCond{col: col, op: op, val: b.Right})
		} else if col, ok := columnOf(desc, alias, b.Right); ok && isConstant(b.Left) {
			out = append(out, colCond{col: col, op: op.flip(), val: b.Left})
		}
	}
	return out
}

// columnOf returns the offset of the column of desc that e names.
func columnOf(desc *TableDescriptor, alias string, e Expr) (int, bool) {
	ref, ok := e.(*ColumnRef)
	if !ok || (ref.Table != "" && ref.Table != desc.Name && ref.Table != alias) {
		return 0, false
	}
	i := desc.ColumnIndex(ref.Column)
	return i, i >= 0
}

// isConstant reports whether e names no column and calls no aggregate: the
// expressions constantValue can evaluate.
func isConstant(e Expr) bool {
	switch x := e.(type) {
	case *ColumnRef, *FuncExpr:
		return false
	case *BinaryExpr:
		return isConstant(x.Left) && isConstant(x.Right)
	case *UnaryExpr:
		return isConstant(x.Operand)
	default:
		return true
	}
}

// eqValue returns the value the conjuncts `col = constant` give col: the
// last one whose constant evaluates, as when each overwrote the one before.
func eqValue(conds []colCond, col int, args []Datum) (Datum, bool) {
	for i := len(conds) - 1; i >= 0; i-- {
		c := &conds[i]
		if c.col != col || c.op != opEq {
			continue
		}
		if v, ok := constantValue(c.val, args); ok {
			return v, true
		}
	}
	return Datum{}, false
}
