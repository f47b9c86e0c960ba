package sql

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/tenantobs"
	"crdbserverless/internal/trace"
	"crdbserverless/internal/txn"
)

// SQL-side CPU accounting (directly measurable per tenant since SQL nodes
// are single-tenant, §5.2.1). Charged per row processed, per aggregate
// update, and — in separate-process deployments — per response byte
// unmarshaled from the KV layer.
const (
	perRowCPUSeconds       = 2e-6
	perAggUpdateCPUSeconds = 5e-7
	perByteUnmarshalCPU    = 15e-9
)

// scanPageSize bounds rows fetched per KV batch, exercising the resumption
// markers of §5.1.4.
const scanPageSize = 4096

// ExecutorConfig configures an Executor.
type ExecutorConfig struct {
	// Colocated marks the traditional deployment (SQL and KV in one
	// process): scans skip cross-process marshaling on both sides (§6.1.2).
	Colocated bool
	// NoPushdown keeps full-table scans from pushing work down to the KV
	// node (the §8 future-work optimization, pushdown.go): every row then
	// crosses the SQL/KV boundary, as in the paper's system. The figures
	// that reproduce the paper set it; the product pushes down.
	NoPushdown bool
	// Obs, when non-nil, receives per-tenant statement outcomes and
	// latencies (sql.tenant_queries, sql.tenant_exec_latency, and the
	// tenant's SLO/window series). The tenant's handle is resolved when the
	// executor is made.
	Obs *tenantobs.Plane
}

// Executor compiles and runs SQL statements for one tenant.
type Executor struct {
	catalog *Catalog
	coord   *txn.Coordinator
	tenant  keys.TenantID
	cfg     ExecutorConfig
	obs     *tenantobs.Tenant
	stmts   stmtCache

	mu struct {
		sync.Mutex
		sqlCPUSeconds float64
		rowsProcessed int64
	}
}

// NewExecutor returns an executor over the catalog's tenant.
func NewExecutor(catalog *Catalog, coord *txn.Coordinator, cfg ExecutorConfig) *Executor {
	return &Executor{catalog: catalog, coord: coord, tenant: catalog.Tenant(), cfg: cfg, obs: cfg.Obs.Tenant(catalog.Tenant())}
}

// Result is the outcome of a statement. A SELECT's Columns are its plan's,
// shared by every execution of the plan in every session: a caller reads
// them and never writes them.
type Result struct {
	Columns      []string
	Rows         [][]Datum
	RowsAffected int
}

// Scratch is the storage a connection lends its statements one at a time,
// for the connection's life: a statement's Result, its implicit transaction,
// the buffer its rows are decoded into and a write's storage. A statement
// run in a Scratch returns the Scratch's Result, valid until Release or the
// next statement runs in it. No two of the Result's row slots share an
// array, so the next SELECT can refill them in place.
type Scratch struct {
	res Result
	txn txn.Txn
	row []Datum
	w   writeScratch
}

// writeScratch is the storage of a statement's keys and values: the
// transaction copies what it keeps of them, so the next statement reuses it.
type writeScratch struct {
	// key is a point plan's primary key.
	key keys.Key
	// rows are the rows an INSERT writes, or an UPDATE or DELETE keeps,
	// end to end; keys are their primary keys, end to end, and kept the
	// kept rows over both.
	rows []Datum
	keys []byte
	kept []tableRow
	// reqs are an INSERT's duplicate check.
	reqs []kvpb.Request
	// value is the row value a write encodes.
	value []byte
}

// keptRows is the most row arrays a Scratch keeps across statements: enough
// that a short result allocates no row, and few enough that one large SELECT
// does not hold its rows' storage for the rest of the connection's life.
// keptBytes bounds the key and value buffers it keeps the same way.
const (
	keptRows   = 16
	keptDatums = 16 * keptRows
	keptBytes  = 4 << 10
)

// result returns the statement's Result, emptied.
func (sc *Scratch) result() *Result {
	sc.res = Result{Rows: sc.res.Rows[:0]}
	return &sc.res
}

// Release drops what the last statement left in sc: the values of its
// Result and of the decode buffer, and its row arrays when there are more
// than keptRows. A connection releases its Scratch once it has written the
// Result, so an idle connection holds no values alive. The Result is not
// valid after.
func (sc *Scratch) Release() {
	rows := sc.res.Rows[:cap(sc.res.Rows)]
	if len(rows) > keptRows {
		rows = nil
	}
	for _, r := range rows {
		clear(r[:cap(r)])
	}
	sc.res = Result{Rows: rows[:0]}
	clear(sc.row[:cap(sc.row)])
	sc.w.release()
}

// release drops the values and keys w holds. It drops the buffers too when a
// statement grew them past keptRows rows or keptBytes bytes.
func (w *writeScratch) release() {
	if cap(w.reqs) > keptRows || cap(w.kept) > keptRows || cap(w.rows) > keptDatums ||
		cap(w.keys) > keptBytes || cap(w.value) > keptBytes {
		*w = writeScratch{}
		return
	}
	clear(w.rows[:cap(w.rows)])
	clear(w.kept[:cap(w.kept)])
	clear(w.reqs[:cap(w.reqs)])
}

// SQLCPUSeconds returns the cumulative directly-measured SQL CPU.
func (e *Executor) SQLCPUSeconds() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mu.sqlCPUSeconds
}

func (e *Executor) chargeRows(n int) {
	e.mu.Lock()
	e.mu.sqlCPUSeconds += float64(n) * perRowCPUSeconds
	e.mu.rowsProcessed += int64(n)
	e.mu.Unlock()
}

func (e *Executor) chargeAgg(n int) {
	e.mu.Lock()
	e.mu.sqlCPUSeconds += float64(n) * perAggUpdateCPUSeconds
	e.mu.Unlock()
}

func (e *Executor) chargeUnmarshal(bytes int64) {
	if e.cfg.Colocated {
		return
	}
	e.mu.Lock()
	e.mu.sqlCPUSeconds += float64(bytes) * perByteUnmarshalCPU
	e.mu.Unlock()
}

// ExecuteStmt runs a prepared statement in sc's storage. When tx is nil the statement runs in its own (retried) implicit
// transaction; otherwise it joins tx.
func (e *Executor) ExecuteStmt(ctx context.Context, p *Prepared, args []Datum, tx *txn.Txn, sc *Scratch) (*Result, error) {
	var start time.Time
	if e.obs != nil {
		start = e.obs.Now()
	}
	res, err := e.executeStmt(ctx, p, args, tx, sc)
	if e.obs != nil {
		e.obs.QueryDone(e.obs.Now().Sub(start), err != nil)
	}
	return res, err
}

func (e *Executor) executeStmt(ctx context.Context, p *Prepared, args []Datum, tx *txn.Txn, sc *Scratch) (*Result, error) {
	ctx, sp := trace.StartSpan(ctx, "sql.exec")
	defer sp.Finish()
	if sp != nil {
		sp.SetAttr("sql.stmt", stmtAttr(p.stmt))
	}
	switch s := p.stmt.(type) {
	case *CreateTable:
		if _, err := e.catalog.CreateTable(ctx, s); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *CreateIndex:
		return e.createIndex(ctx, s)
	case *DropTable:
		return e.dropTable(ctx, s)
	case *ShowTables:
		names, err := e.catalog.List(ctx)
		if err != nil {
			return nil, err
		}
		res := &Result{Columns: []string{"table_name"}}
		for _, n := range names {
			res.Rows = append(res.Rows, []Datum{DString(n)})
		}
		return res, nil
	case *Insert:
		return e.runMaybeTxn(ctx, tx, sc, func(ctx context.Context, t *txn.Txn) (*Result, error) {
			return e.insert(ctx, t, p, s, args, sc)
		})
	case *Select:
		return e.runMaybeTxn(ctx, tx, sc, func(ctx context.Context, t *txn.Txn) (*Result, error) {
			return e.selectStmt(ctx, t, p, s, args, sc)
		})
	case *Update:
		return e.runMaybeTxn(ctx, tx, sc, func(ctx context.Context, t *txn.Txn) (*Result, error) {
			return e.update(ctx, t, p, s, args, sc)
		})
	case *Delete:
		return e.runMaybeTxn(ctx, tx, sc, func(ctx context.Context, t *txn.Txn) (*Result, error) {
			return e.delete(ctx, t, p, s, args, sc)
		})
	default:
		return nil, fmt.Errorf("sql: statement %T must be executed by the session", p.stmt)
	}
}

// stmtAttr names the statement's type for the sql.stmt span attribute, as
// %T would less the package. It returns the attribute value rather than a
// string because a constant is boxed at compile time: every statement passes
// here, and naming it should not allocate.
func stmtAttr(stmt Statement) any {
	switch stmt.(type) {
	case *Select:
		return "Select"
	case *Insert:
		return "Insert"
	case *Update:
		return "Update"
	case *Delete:
		return "Delete"
	case *CreateTable:
		return "CreateTable"
	case *CreateIndex:
		return "CreateIndex"
	case *DropTable:
		return "DropTable"
	case *ShowTables:
		return "ShowTables"
	default:
		return strings.TrimPrefix(fmt.Sprintf("%T", stmt), "*sql.")
	}
}

// runMaybeTxn executes fn in tx, or in a retried implicit transaction in
// sc's storage.
func (e *Executor) runMaybeTxn(ctx context.Context, tx *txn.Txn, sc *Scratch, fn func(context.Context, *txn.Txn) (*Result, error)) (*Result, error) {
	if tx != nil {
		return fn(ctx, tx)
	}
	var res *Result
	err := e.coord.RunTxnIn(ctx, &sc.txn, func(ctx context.Context, t *txn.Txn) error {
		var err error
		res, err = fn(ctx, t)
		return err
	})
	return res, err
}

// scanPages reads span through paginated KV scans, with an optional
// pushed-down scanSpec, handing each page to page as it arrives: pages
// are never concatenated. It is the one consumer that releases a response
// (kvpb.BatchResponse.Release), as soon as page returns, so the rows and
// their keys are valid only until then.
func (e *Executor) scanPages(ctx context.Context, t *txn.Txn, span keys.Span, spec []byte, page func([]kvpb.KeyValue) error) error {
	cur := span
	for {
		resp, err := t.Send(ctx, kvpb.Request{
			Method: kvpb.Scan, Key: cur.Key, EndKey: cur.EndKey, MaxKeys: scanPageSize,
			Filter: spec,
		})
		if err != nil {
			return err
		}
		r := resp.Responses[0]
		e.chargeUnmarshal(resp.ReadBytes())
		err = page(r.Rows)
		resp.Release()
		if err != nil {
			return err
		}
		if r.ResumeSpan == nil {
			return nil
		}
		cur = *r.ResumeSpan
	}
}

// scanRows reads the table's rows and calls visit with each, using a
// primary-key point lookup or a secondary-index scan when the WHERE
// conjuncts conds (the plan's colConds of desc) allow, and a full scan
// otherwise. The index and full-scan plans visit rows page by page as the KV
// layer returns them.
//
// When cols is non-nil it binds where's column references, and only rows
// that pass where are visited. A nil cols visits every row the plan reads:
// a join input's WHERE may name the other table's columns, so it applies to
// the joined rows instead.
//
// Every row is decoded into one buffer, sc's: the row visit receives is
// valid only until visit returns, and a caller that keeps it copies it. So
// is pk, which the full scan reads from a KV page and the point and index
// plans build in sc.
func (e *Executor) scanRows(ctx context.Context, t *txn.Txn, desc *TableDescriptor, conds []colCond, where Expr, args []Datum, cols map[string]int, sc *Scratch, visit func(pk keys.Key, row []Datum) error) error {
	// row decodes the stored value raw of the row at pk into buf, the one
	// buffer every row of the scan uses, and visits it if it passes WHERE.
	buf := sc.row
	defer func() { sc.row = buf }()
	env := evalEnv{cols: cols, args: args}
	filtered := cols != nil && where != nil
	row := func(pk keys.Key, raw []byte) error {
		var err error
		if buf, err = decodeRowValue(buf[:0], raw); err != nil {
			return err
		}
		if filtered {
			env.row = buf
			v, err := evalExpr(&env, where)
			if err != nil {
				return err
			}
			if !v.isTrue() {
				return nil
			}
		}
		return visit(pk, buf)
	}
	// Plan 1: full primary key equality -> point get.
	var pkBuf [4]Datum
	if pkVals, ok := extractPKConstraint(pkBuf[:0], desc, conds, args); ok {
		key := appendKeyFromValues(sc.w.key[:0], e.tenant, desc, pkVals)
		sc.w.key = key
		raw, found, err := t.Get(ctx, key)
		if err != nil || !found {
			return err
		}
		e.chargeRows(1)
		e.chargeUnmarshal(int64(len(raw)))
		return row(key, raw)
	}
	// Plan 2: secondary index equality -> index scan + point lookups (the
	// "index join" plan shape of TPC-H Q9, §6.1.2).
	if idx, vals, ok := extractIndexConstraint(desc, conds, args); ok {
		prefix := indexPrefix(e.tenant, desc, idx, vals)
		found := 0
		err := e.scanPages(ctx, t, keys.Span{Key: prefix, EndKey: prefix.PrefixEnd()}, nil, func(entries []kvpb.KeyValue) error {
			for _, entry := range entries {
				pkVals, err := decodeIndexKeyPK(e.tenant, desc, idx, entry.Key)
				if err != nil {
					return err
				}
				key := appendKeyFromValues(sc.w.key[:0], e.tenant, desc, pkVals)
				sc.w.key = key
				raw, ok, err := t.Get(ctx, key)
				if err != nil {
					return err
				}
				if !ok {
					continue // index entry racing a delete
				}
				found++
				e.chargeUnmarshal(int64(len(raw)))
				if err := row(key, raw); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		e.chargeRows(found)
		return nil
	}
	// Plan 3: full table scan, with filter push-down.
	var filter []byte
	if !e.cfg.NoPushdown {
		filter = compilePushdownFilter(conds, args)
	}
	scanned := 0
	err := e.scanPages(ctx, t, tableSpan(e.tenant, desc), filter, func(kvs []kvpb.KeyValue) error {
		for _, kv := range kvs {
			if err := row(kv.Key, kv.Value); err != nil {
				return err
			}
		}
		scanned += len(kvs)
		return nil
	})
	if err != nil {
		return err
	}
	e.chargeRows(scanned)
	return nil
}

// extractPKConstraint finds constant equality constraints covering the whole
// primary key, and appends their values to vals.
func extractPKConstraint(vals []Datum, desc *TableDescriptor, conds []colCond, args []Datum) ([]Datum, bool) {
	if len(conds) == 0 {
		return nil, false
	}
	for _, pkIdx := range desc.PrimaryKey {
		d, ok := eqValue(conds, pkIdx, args)
		if !ok {
			return nil, false
		}
		coerced, err := d.coerce(desc.Columns[pkIdx].Type)
		if err != nil {
			return nil, false
		}
		vals = append(vals, coerced)
	}
	return vals, true
}

// extractIndexConstraint finds an index whose leading column(s) are
// constrained by constant equality.
func extractIndexConstraint(desc *TableDescriptor, conds []colCond, args []Datum) (*IndexDescriptor, []Datum, bool) {
	if len(conds) == 0 || len(desc.Indexes) == 0 {
		return nil, nil, false
	}
	var best *IndexDescriptor
	var bestVals []Datum
	for i := range desc.Indexes {
		idx := &desc.Indexes[i]
		var vals []Datum
		for _, col := range idx.Columns {
			d, ok := eqValue(conds, col, args)
			if !ok {
				break
			}
			coerced, err := d.coerce(desc.Columns[col].Type)
			if err != nil {
				break
			}
			vals = append(vals, coerced)
		}
		if len(vals) > len(bestVals) {
			best = idx
			bestVals = vals
		}
	}
	if best == nil || len(bestVals) == 0 {
		return nil, nil, false
	}
	return best, bestVals, true
}

// insert writes rows, maintaining secondary indexes and rejecting duplicate
// primary keys. The rows, their keys and values are in sc's storage.
func (e *Executor) insert(ctx context.Context, t *txn.Txn, p *Prepared, s *Insert, args []Datum, sc *Scratch) (*Result, error) {
	pl, err := e.planFor(ctx, p)
	if err != nil {
		return nil, err
	}
	desc, colOrder := pl.desc, pl.colOrder
	width := len(desc.Columns)
	// Evaluate every row first, so the duplicate check below is one KV round
	// trip for the statement and the writes after it only fill the
	// transaction's buffer. The rows lie end to end, and the check's
	// requests hold their keys. A statement of one row cannot repeat a key.
	w := &sc.w
	rows, pks, reqs := w.rows[:0], w.keys[:0], w.reqs[:0]
	defer func() { w.rows, w.keys, w.reqs = rows, pks, reqs }()
	var inStmt map[string]bool
	if len(s.Rows) > 1 {
		inStmt = make(map[string]bool, len(s.Rows))
	}
	env := evalEnv{args: args}
	for _, exprs := range s.Rows {
		if len(exprs) != len(colOrder) {
			return nil, fmt.Errorf("sql: INSERT has %d values for %d columns", len(exprs), len(colOrder))
		}
		start := len(rows)
		for range width {
			rows = append(rows, DNull)
		}
		row := rows[start:]
		for i, ex := range exprs {
			v, err := evalExpr(&env, ex)
			if err != nil {
				return nil, err
			}
			coerced, err := v.coerce(desc.Columns[colOrder[i]].Type)
			if err != nil {
				return nil, err
			}
			row[colOrder[i]] = coerced
		}
		start = len(pks)
		if pks, err = appendPrimaryKey(pks, e.tenant, desc, row); err != nil {
			return nil, err
		}
		pk := keys.Key(pks[start:len(pks):len(pks)])
		if inStmt != nil {
			if inStmt[string(pk)] {
				return nil, errDuplicateKey(desc)
			}
			inStmt[string(pk)] = true
		}
		reqs = append(reqs, kvpb.Request{Method: kvpb.Get, Key: pk})
	}
	if err := e.checkKeysFree(ctx, t, desc, reqs); err != nil {
		return nil, err
	}
	for i := range reqs {
		if err := e.writeRow(ctx, t, desc, reqs[i].Key, rows[i*width:(i+1)*width], w); err != nil {
			return nil, err
		}
	}
	e.chargeRows(len(reqs))
	res := sc.result()
	res.RowsAffected = len(reqs)
	return res, nil
}

func errDuplicateKey(desc *TableDescriptor) error {
	return fmt.Errorf("sql: duplicate primary key in %s", desc.Name)
}

// checkKeysFree rejects primary keys that already hold a row, stored or
// written earlier in the transaction, reading all of them in one KV batch:
// reqs are a Get of each.
func (e *Executor) checkKeysFree(ctx context.Context, t *txn.Txn, desc *TableDescriptor, reqs []kvpb.Request) error {
	resp, err := t.Send(ctx, reqs...)
	if err != nil {
		return err
	}
	for _, r := range resp.Responses {
		if r.Exists {
			return errDuplicateKey(desc)
		}
	}
	return nil
}

// writeRow writes a row under its primary key pk, and its index entries. The
// row value is encoded in w.
func (e *Executor) writeRow(ctx context.Context, t *txn.Txn, desc *TableDescriptor, pk keys.Key, row []Datum, w *writeScratch) error {
	w.value = appendRowValue(w.value[:0], row)
	if err := t.Put(ctx, pk, w.value); err != nil {
		return err
	}
	for i := range desc.Indexes {
		ik, err := indexKey(e.tenant, desc, &desc.Indexes[i], row)
		if err != nil {
			return err
		}
		if err := t.Put(ctx, ik, []byte{}); err != nil {
			return err
		}
	}
	return nil
}

// tableRow is a row an UPDATE or DELETE keeps past its scan, with its
// primary key.
type tableRow struct {
	pk  keys.Key
	row []Datum
}

// keepRows copies out the rows of pl's table that pass where, and their
// primary keys, into sc's storage: scanRows lends both only for the visit.
// UPDATE and DELETE write only once the scan is done, so no write of theirs
// lands in a page still to be read.
func (e *Executor) keepRows(ctx context.Context, t *txn.Txn, pl *plan, where Expr, args []Datum, sc *Scratch) ([]tableRow, error) {
	w := &sc.w
	kept, rows, pks := w.kept[:0], w.rows[:0], w.keys[:0]
	err := e.scanRows(ctx, t, pl.desc, pl.where, where, args, pl.cols, sc, func(pk keys.Key, row []Datum) error {
		start := len(pks)
		pks = append(pks, pk...)
		rows = append(rows, row...)
		kept = append(kept, tableRow{pk: pks[start:len(pks):len(pks)], row: rows[len(rows)-len(row) : len(rows) : len(rows)]})
		return nil
	})
	w.kept, w.rows, w.keys = kept, rows, pks
	return kept, err
}

// deleteRow removes a row and its index entries.
func (e *Executor) deleteRow(ctx context.Context, t *txn.Txn, desc *TableDescriptor, r tableRow) error {
	if err := t.Delete(ctx, r.pk); err != nil {
		return err
	}
	for i := range desc.Indexes {
		ik, err := indexKey(e.tenant, desc, &desc.Indexes[i], r.row)
		if err != nil {
			return err
		}
		if err := t.Delete(ctx, ik); err != nil {
			return err
		}
	}
	return nil
}

func (e *Executor) update(ctx context.Context, t *txn.Txn, p *Prepared, s *Update, args []Datum, sc *Scratch) (*Result, error) {
	pl, err := e.planFor(ctx, p)
	if err != nil {
		return nil, err
	}
	desc, cols := pl.desc, pl.cols
	rows, err := e.keepRows(ctx, t, pl, s.Where, args, sc)
	if err != nil {
		return nil, err
	}
	affected := 0
	for _, r := range rows {
		// The scan is over, so its decode buffer holds the new row.
		newRow := append(sc.row[:0], r.row...)
		sc.row = newRow
		env := &evalEnv{cols: cols, row: r.row, args: args}
		pkChanged := false
		for _, set := range s.Set {
			i := desc.ColumnIndex(set.Column)
			if i < 0 {
				return nil, fmt.Errorf("sql: column %q not in table %s", set.Column, s.Table)
			}
			v, err := evalExpr(env, set.Expr)
			if err != nil {
				return nil, err
			}
			coerced, err := v.coerce(desc.Columns[i].Type)
			if err != nil {
				return nil, err
			}
			if desc.IsPrimaryKeyColumn(i) && !coerced.Equal(r.row[i]) {
				pkChanged = true
			}
			newRow[i] = coerced
		}
		if pkChanged {
			if err := e.deleteRow(ctx, t, desc, r); err != nil {
				return nil, err
			}
			pk, err := appendPrimaryKey(sc.w.key[:0], e.tenant, desc, newRow)
			if err != nil {
				return nil, err
			}
			sc.w.key = pk
			if err := e.checkKeysFree(ctx, t, desc, []kvpb.Request{{Method: kvpb.Get, Key: pk}}); err != nil {
				return nil, err
			}
			if err := e.writeRow(ctx, t, desc, pk, newRow, &sc.w); err != nil {
				return nil, err
			}
		} else {
			// Refresh index entries whose keys changed.
			for i := range desc.Indexes {
				oldKey, err := indexKey(e.tenant, desc, &desc.Indexes[i], r.row)
				if err != nil {
					return nil, err
				}
				newKey, err := indexKey(e.tenant, desc, &desc.Indexes[i], newRow)
				if err != nil {
					return nil, err
				}
				if !oldKey.Equal(newKey) {
					if err := t.Delete(ctx, oldKey); err != nil {
						return nil, err
					}
					if err := t.Put(ctx, newKey, []byte{}); err != nil {
						return nil, err
					}
				}
			}
			sc.w.value = appendRowValue(sc.w.value[:0], newRow)
			if err := t.Put(ctx, r.pk, sc.w.value); err != nil {
				return nil, err
			}
		}
		affected++
	}
	e.chargeRows(affected)
	res := sc.result()
	res.RowsAffected = affected
	return res, nil
}

func (e *Executor) delete(ctx context.Context, t *txn.Txn, p *Prepared, s *Delete, args []Datum, sc *Scratch) (*Result, error) {
	pl, err := e.planFor(ctx, p)
	if err != nil {
		return nil, err
	}
	rows, err := e.keepRows(ctx, t, pl, s.Where, args, sc)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		if err := e.deleteRow(ctx, t, pl.desc, r); err != nil {
			return nil, err
		}
	}
	e.chargeRows(len(rows))
	res := sc.result()
	res.RowsAffected = len(rows)
	return res, nil
}

func (e *Executor) createIndex(ctx context.Context, s *CreateIndex) (*Result, error) {
	desc, err := e.catalog.Lookup(ctx, s.Table)
	if err != nil {
		return nil, err
	}
	idx := IndexDescriptor{Name: s.Name}
	for _, col := range s.Columns {
		i := desc.ColumnIndex(col)
		if i < 0 {
			return nil, fmt.Errorf("sql: column %q not in table %s", col, s.Table)
		}
		idx.Columns = append(idx.Columns, i)
	}
	updated, err := e.catalog.CreateIndex(ctx, s.Table, idx)
	if err != nil {
		return nil, err
	}
	// Backfill existing rows, page by page: the entries written lie in the
	// new index, outside the primary index span still being read.
	newIdx := &updated.Indexes[len(updated.Indexes)-1]
	err = e.coord.RunTxn(ctx, func(ctx context.Context, t *txn.Txn) error {
		var row []Datum
		return e.scanPages(ctx, t, tableSpan(e.tenant, updated), nil, func(kvs []kvpb.KeyValue) error {
			for _, kv := range kvs {
				var err error
				if row, err = decodeRowValue(row[:0], kv.Value); err != nil {
					return err
				}
				ik, err := indexKey(e.tenant, updated, newIdx, row)
				if err != nil {
					return err
				}
				if err := t.Put(ctx, ik, []byte{}); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (e *Executor) dropTable(ctx context.Context, s *DropTable) (*Result, error) {
	desc, err := e.catalog.DropTable(ctx, s.Name)
	if err != nil {
		return nil, err
	}
	// Delete all table data (every index) in one ranged delete.
	prefix := keys.MakeTablePrefix(e.tenant, desc.ID)
	err = e.coord.RunTxn(ctx, func(ctx context.Context, t *txn.Txn) error {
		_, err := t.Send(ctx, kvpb.Request{
			Method: kvpb.DeleteRange, Key: prefix, EndKey: prefix.PrefixEnd(),
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// selectStmt runs a SELECT on its plan.
func (e *Executor) selectStmt(ctx context.Context, t *txn.Txn, p *Prepared, s *Select, args []Datum, sc *Scratch) (*Result, error) {
	pl, err := e.planFor(ctx, p)
	if err != nil {
		return nil, err
	}
	desc, cols := pl.desc, pl.cols

	// Each source row that passes WHERE goes to the aggregator, or to the
	// projection — unless a non-aggregate ORDER BY must first sort the source
	// rows, which are then kept. Both evaluate in env, which neither holds.
	env := evalEnv{cols: cols, args: args}
	hasAgg := hasAggregate(s)
	var (
		agg    aggregator
		proj   projection
		sorted [][]Datum
	)
	if hasAgg {
		if agg, err = newAggregator(s); err != nil {
			return nil, err
		}
	} else {
		proj = projection{s: s, res: sc.result()}
		proj.res.Columns = pl.columns
	}
	sorting := !hasAgg && len(s.OrderBy) > 0
	consume := func(row []Datum) error {
		switch {
		case hasAgg:
			return agg.add(&env, row)
		case sorting:
			sorted = append(sorted, row)
			return nil
		default:
			return proj.add(&env, row)
		}
	}
	switch {
	case s.Join != nil:
		err = e.joinRows(ctx, t, pl, s, args, sc, consume)
	case hasAgg && pl.push != nil:
		span := tableSpan(e.tenant, desc)
		if spec := e.aggSpec(t, pl, span, args); spec != nil {
			err = e.scanPartials(ctx, t, pl, span, spec, &agg)
			break
		}
		fallthrough
	default:
		err = e.scanRows(ctx, t, desc, pl.where, s.Where, args, cols, sc, func(_ keys.Key, row []Datum) error {
			if sorting {
				row = slices.Clone(row)
			}
			return consume(row)
		})
	}
	if err != nil {
		return nil, err
	}

	var res *Result
	if hasAgg {
		e.chargeAgg(agg.updates)
		if res, err = agg.result(&env); err != nil {
			return nil, err
		}
		if len(s.OrderBy) > 0 {
			if err := orderAggResult(res, s); err != nil {
				return nil, err
			}
		}
	} else {
		if sorting {
			if err := orderSourceRows(sorted, s, cols, args); err != nil {
				return nil, err
			}
			for _, row := range sorted {
				if err := proj.add(&env, row); err != nil {
					return nil, err
				}
			}
		}
		res = proj.res
	}

	if s.Distinct {
		res.Rows = distinctRows(res.Rows)
	}
	if s.Limit >= 0 && int64(len(res.Rows)) > s.Limit {
		res.Rows = res.Rows[:s.Limit]
	}
	return res, nil
}

// joinRows executes an inner join, preferring a hash join on an equality
// condition, and hands each joined row that passes WHERE to emit. The rows
// emit receives are its to keep.
func (e *Executor) joinRows(ctx context.Context, t *txn.Txn, pl *plan, s *Select, args []Datum, sc *Scratch, emit func([]Datum) error) error {
	// Each input reads under the WHERE clause so per-table constraints
	// (e.g. an indexed equality on the fact table) constrain the plan —
	// the "index joins resulting in remote KV lookups" shape of Q9.
	// Constraints referencing the other table's columns simply don't bind.
	// Both inputs are kept, so their rows are copied out of the scan.
	input := func(desc *TableDescriptor, conds []colCond) ([][]Datum, error) {
		var rows [][]Datum
		err := e.scanRows(ctx, t, desc, conds, s.Where, args, nil, sc, func(_ keys.Key, row []Datum) error {
			rows = append(rows, slices.Clone(row))
			return nil
		})
		return rows, err
	}
	left, right, cols := pl.desc, pl.joinDesc, pl.cols
	leftRows, err := input(left, pl.where)
	if err != nil {
		return err
	}
	rightRows, err := input(right, pl.joinWhere)
	if err != nil {
		return err
	}
	leftName, rightName := left.Name, right.Name
	if s.TableAs != "" {
		leftName = s.TableAs
	}
	if s.Join.As != "" {
		rightName = s.Join.As
	}

	// joined counts the rows the join produces, and passes on those that
	// satisfy WHERE.
	joined := 0
	env := evalEnv{cols: cols, args: args}
	pass := func(row []Datum) error {
		joined++
		if s.Where != nil {
			env.row = row
			v, err := evalExpr(&env, s.Where)
			if err != nil {
				return err
			}
			if !v.isTrue() {
				return nil
			}
		}
		return emit(row)
	}
	combine := func(l, r []Datum) []Datum {
		return append(append(make([]Datum, 0, len(l)+len(r)), l...), r...)
	}

	if lcol, rcol, ok := extractJoinEquality(s.Join.On, left, right, leftName, rightName); ok {
		// Hash join on l.col = r.col. A NULL equals nothing, so a row whose
		// join column is NULL matches no row.
		ht := make(map[string][][]Datum, len(rightRows))
		var key []byte
		for _, r := range rightRows {
			if r[rcol].Kind != TypeNull {
				key = appendGroupKey(key[:0], r[rcol])
				ht[string(key)] = append(ht[string(key)], r)
			}
		}
		for _, l := range leftRows {
			if l[lcol].Kind == TypeNull {
				continue
			}
			key = appendGroupKey(key[:0], l[lcol])
			for _, r := range ht[string(key)] {
				if err := pass(combine(l, r)); err != nil {
					return err
				}
			}
		}
	} else {
		// Fallback: nested-loop join with the ON condition as a filter.
		on := evalEnv{cols: cols, args: args}
		for _, l := range leftRows {
			for _, r := range rightRows {
				row := combine(l, r)
				on.row = row
				v, err := evalExpr(&on, s.Join.On)
				if err != nil {
					return err
				}
				if v.isTrue() {
					if err := pass(row); err != nil {
						return err
					}
				}
			}
		}
	}
	e.chargeRows(joined)
	return nil
}

// extractJoinEquality recognizes ON conditions of the form l.col = r.col.
func extractJoinEquality(on Expr, left, right *TableDescriptor, leftName, rightName string) (lcol, rcol int, ok bool) {
	b, isBin := on.(*BinaryExpr)
	if !isBin || b.Op != "=" {
		return 0, 0, false
	}
	lref, lok := b.Left.(*ColumnRef)
	rref, rok := b.Right.(*ColumnRef)
	if !lok || !rok {
		return 0, 0, false
	}
	resolve := func(ref *ColumnRef) (table int, col int, ok bool) {
		if ref.Table == leftName || ref.Table == left.Name {
			if i := left.ColumnIndex(ref.Column); i >= 0 {
				return 0, i, true
			}
		}
		if ref.Table == rightName || ref.Table == right.Name {
			if i := right.ColumnIndex(ref.Column); i >= 0 {
				return 1, i, true
			}
		}
		if ref.Table == "" {
			if i := left.ColumnIndex(ref.Column); i >= 0 {
				return 0, i, true
			}
			if i := right.ColumnIndex(ref.Column); i >= 0 {
				return 1, i, true
			}
		}
		return 0, 0, false
	}
	lt, lc, lok2 := resolve(lref)
	rt, rc, rok2 := resolve(rref)
	if !lok2 || !rok2 || lt == rt {
		return 0, 0, false
	}
	if lt == 0 {
		return lc, rc, true
	}
	return rc, lc, true
}

// projection evaluates plain (non-aggregate) select expressions, one source
// row at a time, into rows of its own.
type projection struct {
	s   *Select
	res *Result
}

// projectionColumns names the columns a plain select's rows hold, once per
// plan.
func projectionColumns(s *Select, desc, joinDesc *TableDescriptor) []string {
	var cols []string
	for _, se := range s.Exprs {
		switch {
		case se.Star:
			for _, c := range desc.Columns {
				cols = append(cols, c.Name)
			}
			if joinDesc != nil {
				for _, c := range joinDesc.Columns {
					cols = append(cols, c.Name)
				}
			}
		case se.As != "":
			cols = append(cols, se.As)
		default:
			cols = append(cols, exprName(se.Expr))
		}
	}
	return slices.Clip(cols)
}

// add appends the projection of row, evaluated in env, to the result, into
// the array of the result's next row when its Scratch kept one. It does not
// keep row.
func (p *projection) add(env *evalEnv, row []Datum) error {
	var out []Datum
	if n := len(p.res.Rows); n < cap(p.res.Rows) {
		out = p.res.Rows[: n+1 : n+1][n][:0]
	}
	if cap(out) < len(p.res.Columns) {
		out = make([]Datum, 0, len(p.res.Columns))
	}
	env.row = row
	for _, se := range p.s.Exprs {
		if se.Star {
			out = append(out, row...)
			continue
		}
		v, err := evalExpr(env, se.Expr)
		if err != nil {
			return err
		}
		out = append(out, v)
	}
	p.res.Rows = append(p.res.Rows, out)
	return nil
}

func exprName(e Expr) string {
	switch x := e.(type) {
	case *ColumnRef:
		if x.Table != "" {
			return x.Table + "." + x.Column
		}
		return x.Column
	case *FuncExpr:
		return strings.ToLower(x.Name)
	default:
		return "column"
	}
}

// aggFn is an aggregate function. Its values are the function bytes of an
// encoded scan spec (pushdown.go), so they are never renumbered.
type aggFn byte

// The aggregate functions. aggNone marks a select expression that is not an
// aggregate.
const (
	aggNone aggFn = iota
	aggCount
	aggSum
	aggAvg
	aggMin
	aggMax
)

// aggFnNamed returns the function a FuncExpr of this name calls.
func aggFnNamed(name string) aggFn {
	switch name {
	case "COUNT":
		return aggCount
	case "SUM":
		return aggSum
	case "AVG":
		return aggAvg
	case "MIN":
		return aggMin
	case "MAX":
		return aggMax
	default:
		return aggNone
	}
}

// aggState accumulates one aggregate function over a group. It tracks only
// what its function's result reads: count for every function (seen is
// count > 0 once a state crosses the SQL/KV boundary), sum, sumI and isInt
// for SUM and AVG, min for MIN and max for MAX. At the KV node a STRING min
// or max views the row value it was read from, which outlives the fold
// (scanFold).
type aggState struct {
	fn    aggFn
	count int64
	sum   float64
	sumI  int64
	isInt bool
	min   Datum
	max   Datum
	seen  bool
}

// update folds d into a, a step the row path and the KV node's fold share.
func (a *aggState) update(d Datum) {
	switch {
	case d.Kind == TypeNull:
		return
	case a.fn == aggMin:
		if !a.seen || d.Compare(a.min) < 0 {
			a.min = d
		}
	case a.fn == aggMax:
		if !a.seen || d.Compare(a.max) > 0 {
			a.max = d
		}
	case d.Kind == TypeInt:
		a.addInt(d.I)
		return
	case d.Kind == TypeFloat:
		a.addFloat(d.F)
		return
	}
	a.count++
	a.seen = true
}

// addInt is update of an INT i to a state that sums (neither MIN nor MAX).
func (a *aggState) addInt(i int64) {
	a.count++
	a.sumI += i
	a.sum += float64(i)
	a.seen = true
}

// addFloat is update of a FLOAT f to a state that sums.
func (a *aggState) addFloat(f float64) {
	a.count++
	a.isInt = false
	a.sum += f
	a.seen = true
}

// countRow counts a row for COUNT(*).
func (a *aggState) countRow() {
	a.count++
	a.seen = true
}

// merge folds into a the state p of the rows that follow a's, both of a's
// function: a then holds what update would have reached over both runs of
// rows, one after the other, but for sum, which adds up the runs' float sums
// rather than the values one by one. Partial aggregates computed at the KV
// node are merged this way.
func (a *aggState) merge(p *aggState) {
	if !p.seen {
		return
	}
	a.count += p.count
	switch a.fn {
	case aggMin:
		if !a.seen || p.min.Compare(a.min) < 0 {
			a.min = p.min
		}
	case aggMax:
		if !a.seen || p.max.Compare(a.max) > 0 {
			a.max = p.max
		}
	default:
		a.sumI += p.sumI
		a.sum += p.sum
		a.isInt = a.isInt && p.isInt
	}
	a.seen = true
}

func (a *aggState) result() Datum {
	switch a.fn {
	case aggCount:
		return DInt(a.count)
	case aggSum:
		if !a.seen {
			return DNull
		}
		if a.isInt {
			return DInt(a.sumI)
		}
		return DFloat(a.sum)
	case aggAvg:
		if a.count == 0 {
			return DNull
		}
		return DFloat(a.sum / float64(a.count))
	case aggMin:
		if !a.seen {
			return DNull
		}
		return a.min
	case aggMax:
		if !a.seen {
			return DNull
		}
		return a.max
	default:
		return DNull
	}
}

// aggregator evaluates GROUP BY and aggregate functions over source rows as
// they arrive, or over the partial aggregates a KV node computed from them
// (addPartial). A row's group key is appended into one reused buffer and
// looked up without allocating; a group, its aggregate states and its copy
// of the first row are allocated only when the group is new. Without GROUP
// BY there is one group and no key.
type aggregator struct {
	s      *Select
	groups map[string]*aggGroup // nil without GROUP BY
	order  []*aggGroup          // groups in order of first appearance
	key    []byte               // the current row's group key
	// updates counts aggregate updates and merges, for the statement's one
	// chargeAgg.
	updates int
}

// aggGroup is one group's state: an aggState per select expression (fn is
// aggNone for a non-aggregate) and the first row, which the non-aggregate
// expressions are evaluated on.
type aggGroup struct {
	firstRow []Datum
	aggs     []aggState
}

func newAggregator(s *Select) (aggregator, error) {
	for _, se := range s.Exprs {
		if se.Star {
			return aggregator{}, fmt.Errorf("sql: * not allowed with aggregates")
		}
	}
	a := aggregator{s: s}
	if len(s.GroupBy) > 0 {
		a.groups = make(map[string]*aggGroup)
	}
	return a, nil
}

// newGroup returns a group with fresh aggregate states.
func (a *aggregator) newGroup(firstRow []Datum) *aggGroup {
	g := &aggGroup{firstRow: firstRow, aggs: make([]aggState, len(a.s.Exprs))}
	for i, se := range a.s.Exprs {
		if fe, ok := se.Expr.(*FuncExpr); ok {
			g.aggs[i] = aggState{fn: aggFnNamed(fe.Name), isInt: true}
		}
	}
	return g
}

// group returns the group of env's row, opening the group with a copy of
// the row if it is new.
func (a *aggregator) group(env *evalEnv) (*aggGroup, error) {
	if len(a.s.GroupBy) == 0 {
		if len(a.order) == 0 {
			a.order = append(a.order, a.newGroup(slices.Clone(env.row)))
		}
		return a.order[0], nil
	}
	a.key = a.key[:0]
	for _, ge := range a.s.GroupBy {
		v, err := evalExpr(env, ge)
		if err != nil {
			return nil, err
		}
		a.key = appendGroupKey(a.key, v)
	}
	g, ok := a.groups[string(a.key)]
	if !ok {
		g = a.newGroup(slices.Clone(env.row))
		a.groups[string(a.key)] = g
		a.order = append(a.order, g)
	}
	return g, nil
}

// add folds row, evaluated in env, into its group. It does not keep row.
func (a *aggregator) add(env *evalEnv, row []Datum) error {
	env.row = row
	g, err := a.group(env)
	if err != nil {
		return err
	}
	for i, se := range a.s.Exprs {
		st := &g.aggs[i]
		if st.fn == aggNone {
			continue
		}
		fe := se.Expr.(*FuncExpr)
		if fe.Star {
			st.countRow()
			continue
		}
		v, err := evalExpr(env, fe.Arg)
		if err != nil {
			return err
		}
		st.update(v)
		a.updates++
	}
	return nil
}

// addPartial merges one partial row of pl's pushed aggregation into its
// group, opening the group if it is new. The group's first row is known only
// by its group columns, the only columns its non-aggregate expressions read
// (newAggPush); the others are NULL.
func (a *aggregator) addPartial(pl *plan, value []byte) error {
	p := pl.push
	// A partial row's values are decoded onto the stack: the few groups of
	// a query are the only allocations the partials cost.
	var valBuf [4]Datum
	var stateBuf [8]aggState
	vals, states, err := decodePartial(p, value, valBuf[:0], stateBuf[:0])
	if err != nil {
		return err
	}
	a.key = a.key[:0]
	for _, v := range vals {
		a.key = appendGroupKey(a.key, v)
	}
	var g *aggGroup
	switch {
	case a.groups == nil && len(a.order) > 0:
		g = a.order[0]
	case a.groups != nil:
		g = a.groups[string(a.key)]
	}
	if g == nil {
		first := make([]Datum, len(pl.desc.Columns))
		for i := range first {
			first[i] = DNull
		}
		for i, c := range p.groupBy {
			first[c] = vals[i]
		}
		g = a.newGroup(first)
		if a.groups != nil {
			a.groups[string(a.key)] = g
		}
		a.order = append(a.order, g)
	}
	for j, i := range p.exprs {
		g.aggs[i].merge(&states[j])
	}
	a.updates += len(p.exprs)
	return nil
}

// result renders one row per group, in order of first appearance, with
// non-aggregate expressions evaluated in env.
func (a *aggregator) result(env *evalEnv) (*Result, error) {
	// No GROUP BY over zero rows still yields one (empty-aggregate) row.
	if len(a.s.GroupBy) == 0 && len(a.order) == 0 {
		a.order = append(a.order, a.newGroup(nil))
	}
	res := &Result{}
	for _, se := range a.s.Exprs {
		if se.As != "" {
			res.Columns = append(res.Columns, se.As)
		} else {
			res.Columns = append(res.Columns, exprName(se.Expr))
		}
	}
	for _, g := range a.order {
		out := make([]Datum, 0, len(a.s.Exprs))
		for i, se := range a.s.Exprs {
			if g.aggs[i].fn != aggNone {
				out = append(out, g.aggs[i].result())
				continue
			}
			// Non-aggregate expression: evaluate on the group's first row.
			if g.firstRow == nil {
				out = append(out, DNull)
				continue
			}
			env.row = g.firstRow
			v, err := evalExpr(env, se.Expr)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// orderSourceRows sorts the pre-projection rows of a non-aggregate query.
// ORDER BY terms may reference any source column, a select alias, or an
// arbitrary expression over source columns.
func orderSourceRows(rows [][]Datum, s *Select, cols map[string]int, args []Datum) error {
	terms := make([]Expr, len(s.OrderBy))
	for k, oc := range s.OrderBy {
		terms[k] = resolveOrderTerm(oc, s, cols)
	}
	keys := make([][]Datum, len(rows))
	for i, row := range rows {
		env := &evalEnv{cols: cols, row: row, args: args}
		for _, term := range terms {
			v, err := evalExpr(env, term)
			if err != nil {
				return err
			}
			keys[i] = append(keys[i], v)
		}
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for k, oc := range s.OrderBy {
			cmp := keys[idx[a]][k].Compare(keys[idx[b]][k])
			if cmp == 0 {
				continue
			}
			if oc.Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	sorted := make([][]Datum, len(rows))
	for i, j := range idx {
		sorted[i] = rows[j]
	}
	copy(rows, sorted)
	return nil
}

// resolveOrderTerm returns the expression a non-aggregate ORDER BY term sorts
// on: a bare name that is a select alias and not a column resolves to the
// aliased expression (the last, if several share the alias).
func resolveOrderTerm(oc OrderClause, s *Select, cols map[string]int) Expr {
	ref, ok := oc.Expr.(*ColumnRef)
	if !ok || ref.Table != "" {
		return oc.Expr
	}
	if _, isCol := cols[ref.Column]; isCol {
		return oc.Expr
	}
	for i := len(s.Exprs) - 1; i >= 0; i-- {
		if se := s.Exprs[i]; se.As == ref.Column && !se.Star {
			return se.Expr
		}
	}
	return oc.Expr
}

// orderAggResult sorts aggregate output rows; ORDER BY terms must name an
// output column or alias of the aggregation.
func orderAggResult(res *Result, s *Select) error {
	resCols := make(map[string]int)
	for i, name := range res.Columns {
		resCols[name] = i
	}
	keyIdx := make([]int, len(s.OrderBy))
	for k, oc := range s.OrderBy {
		ref, ok := oc.Expr.(*ColumnRef)
		if !ok || ref.Table != "" {
			return fmt.Errorf("sql: ORDER BY %s must reference an output column of the aggregation", exprName(oc.Expr))
		}
		j, ok := resCols[ref.Column]
		if !ok {
			return fmt.Errorf("sql: ORDER BY column %q is not in the aggregation output", ref.Column)
		}
		keyIdx[k] = j
	}
	sort.SliceStable(res.Rows, func(a, b int) bool {
		for k, oc := range s.OrderBy {
			cmp := res.Rows[a][keyIdx[k]].Compare(res.Rows[b][keyIdx[k]])
			if cmp == 0 {
				continue
			}
			if oc.Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	return nil
}

// distinctRows keeps the first of each set of equal rows, in order, in the
// front of rows. It swaps rather than overwrites, so the dropped rows'
// arrays move to the tail and no two slots share an array: a Scratch's
// next SELECT refills every slot in place.
func distinctRows(rows [][]Datum) [][]Datum {
	seen := make(map[string]struct{}, len(rows))
	n := 0
	var key []byte
	for i, r := range rows {
		key = key[:0]
		for _, d := range r {
			key = appendGroupKey(key, d)
		}
		if _, dup := seen[string(key)]; !dup {
			seen[string(key)] = struct{}{}
			rows[n], rows[i] = rows[i], rows[n]
			n++
		}
	}
	return rows[:n]
}
