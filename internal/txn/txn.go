// Package txn implements the client-side transaction coordinator over the KV
// layer: it assigns transaction IDs and timestamps, keeps a transaction's
// point writes in a buffer until commit and ships them as one commit batch,
// tracks and resolves the intents of whatever could not be committed that
// way, and drives automatic retries for retriable errors (§3.1: the KV layer
// "supports transactions" and is spoken to in batches; SQL sessions run their
// statements through this coordinator).
package txn

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crdbserverless/internal/faultinject"
	"crdbserverless/internal/hlc"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/tenantobs"
	"crdbserverless/internal/trace"
)

// Sender abstracts the KV entry point (a DistSender in production wiring).
type Sender interface {
	Send(ctx context.Context, ba *kvpb.BatchRequest) (*kvpb.BatchResponse, error)
}

// nextTxnID issues process-wide unique transaction IDs.
var nextTxnID uint64

// Coordinator creates transactions for one tenant through one sender.
type Coordinator struct {
	sender Sender
	clock  *hlc.Clock
	tenant keys.TenantID
	faults *faultinject.Registry
	obs    *tenantobs.Plane
}

// NewCoordinator returns a Coordinator.
func NewCoordinator(sender Sender, clock *hlc.Clock, tenant keys.TenantID) *Coordinator {
	return &Coordinator{sender: sender, clock: clock, tenant: tenant}
}

// SetFaults arms the coordinator's fault-injection sites (txn.postsend fails
// a transactional batch after the send returned but before the coordinator
// processes the response).
func (c *Coordinator) SetFaults(f *faultinject.Registry) { c.faults = f }

// SetObs wires the tenant observability plane; transaction retries, commits
// by path and commit-batch retries are then counted against the
// coordinator's tenant (txn.tenant_retries, txn.tenant_commits,
// txn.tenant_commit_retries).
func (c *Coordinator) SetObs(p *tenantobs.Plane) { c.obs = p }

// Txn is one transaction. It is not safe for concurrent use (like a SQL
// session, it executes one statement at a time).
//
// Point writes cost nothing until commit: Put and Delete go into a write
// buffer, reads consult it (Get first, Scan by overlaying it on each page),
// and Commit ships the buffer as one batch that a single range commits in one
// replicated command. Only a write the buffer cannot represent — a
// DeleteRange, or more than maxBufferBytes — makes the transaction direct:
// the buffer goes out as intents and every later write follows it, to be
// resolved at commit.
type Txn struct {
	coord *Coordinator
	meta  kvpb.TxnMeta

	mu struct {
		sync.Mutex
		buf writeBuffer
		// direct is set once the transaction writes intents as it goes
		// instead of buffering.
		direct bool
		// intents and spans are the footprint of the intent batches sent so
		// far, recorded before each goes out: point keys, and DeleteRange
		// spans, whose exact tombstoned keys may never come back if the batch
		// fails after partial application.
		intents  map[string]keys.Key
		spans    []keys.Span
		finished bool
		aborted  bool
	}
}

// Begin starts a transaction at the current HLC time.
func (c *Coordinator) Begin() *Txn {
	t := &Txn{coord: c}
	t.meta = kvpb.TxnMeta{
		ID:       atomic.AddUint64(&nextTxnID, 1),
		Ts:       c.clock.Now(),
		Priority: kvpb.PriorityNormal,
	}
	return t
}

// ID returns the transaction's unique ID.
func (t *Txn) ID() uint64 { return t.meta.ID }

// Ts returns the transaction's current timestamp.
func (t *Txn) Ts() hlc.Timestamp { return t.meta.Ts }

// ErrTxnFinished is returned by operations on a committed/aborted txn.
var ErrTxnFinished = errors.New("txn: transaction already finished")

// Send executes a batch inside the transaction. Put and Delete requests are
// buffered (the transaction keeps their keys and values until it finishes;
// the caller must not modify them) and answered at once; reads go to KV
// unless the buffer already answers them. As in kvserver.evaluateBatch, a
// batch's reads do not observe the same batch's writes.
func (t *Txn) Send(ctx context.Context, reqs ...kvpb.Request) (*kvpb.BatchResponse, error) {
	var writes, unbufferable bool
	for i := range reqs {
		switch reqs[i].Method {
		case kvpb.Get, kvpb.Scan:
		case kvpb.Put, kvpb.Delete:
			writes = true
		default:
			unbufferable = true
		}
	}
	t.mu.Lock()
	if t.mu.finished {
		t.mu.Unlock()
		return nil, ErrTxnFinished
	}
	direct := t.mu.direct
	buffered := t.mu.buf.len() > 0
	t.mu.Unlock()
	if unbufferable && !direct {
		if err := t.flush(ctx); err != nil {
			return nil, err
		}
		direct = true
	}
	switch {
	case direct:
		return t.sendIntents(ctx, reqs)
	case !writes && !buffered:
		// Nothing buffered and nothing to buffer: the caller's batch goes
		// through untouched.
		return t.send(ctx, t.batch(reqs))
	default:
		return t.sendBuffered(ctx, reqs)
	}
}

// batch wraps reqs as a batch of this transaction. The meta never changes
// after Begin, so every batch points at the one copy.
func (t *Txn) batch(reqs []kvpb.Request) *kvpb.BatchRequest {
	return &kvpb.BatchRequest{Tenant: t.coord.tenant, Txn: &t.meta, Requests: reqs}
}

// send sends one transactional batch. The txn.postsend fault fails it after
// it applied server-side, before the coordinator has seen the response.
func (t *Txn) send(ctx context.Context, ba *kvpb.BatchRequest) (*kvpb.BatchResponse, error) {
	resp, err := t.coord.sender.Send(ctx, ba)
	if err != nil {
		return nil, err
	}
	if err := t.coord.faults.MaybeErr("txn.postsend"); err != nil {
		return nil, err
	}
	return resp, nil
}

// sendBuffered answers reads from the buffer where it can, sends the rest to
// KV in one batch, and then buffers the batch's writes.
func (t *Txn) sendBuffered(ctx context.Context, reqs []kvpb.Request) (*kvpb.BatchResponse, error) {
	out := &kvpb.BatchResponse{Timestamp: t.meta.Ts, Responses: make([]kvpb.Response, len(reqs))}
	var fwd []kvpb.Request
	var fwdIdx []int
	t.mu.Lock()
	for i, r := range reqs {
		out.Responses[i].Method = r.Method
		if r.Method.IsWrite() {
			continue
		}
		if r.Method == kvpb.Get {
			if w, ok := t.mu.buf.get(r.Key); ok {
				out.Responses[i].Value, out.Responses[i].Exists = w.value, !w.del
				continue
			}
		}
		fwd = append(fwd, r)
		fwdIdx = append(fwdIdx, i)
	}
	t.mu.Unlock()
	var resp *kvpb.BatchResponse
	if len(fwd) > 0 {
		var err error
		if resp, err = t.send(ctx, t.batch(fwd)); err != nil {
			return nil, err
		}
	}
	t.mu.Lock()
	for j, i := range fwdIdx {
		out.Responses[i] = resp.Responses[j]
		if reqs[i].Method == kvpb.Scan {
			t.mu.buf.overlay(reqs[i], &out.Responses[i])
		}
	}
	for _, r := range reqs {
		if r.Method.IsWrite() {
			w := bufferedWrite{key: r.Key, value: r.Value}
			if r.Method == kvpb.Delete {
				w = bufferedWrite{key: r.Key, del: true}
			}
			t.mu.buf.add(w)
		}
	}
	full := t.mu.buf.bytes > maxBufferBytes
	t.mu.Unlock()
	if full {
		if err := t.flush(ctx); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// flush makes the transaction direct: the buffer goes to KV as one intent
// batch, and from here on writes are sent as they are made and the
// transaction commits by resolving them.
func (t *Txn) flush(ctx context.Context) error {
	t.mu.Lock()
	reqs := t.mu.buf.requests()
	t.mu.buf = writeBuffer{}
	t.mu.direct = true
	t.mu.Unlock()
	if len(reqs) == 0 {
		return nil
	}
	_, err := t.sendIntents(ctx, reqs)
	return err
}

// sendIntents sends a batch whose writes land as intents, tracking them for
// resolution.
func (t *Txn) sendIntents(ctx context.Context, reqs []kvpb.Request) (*kvpb.BatchResponse, error) {
	// Record write footprints BEFORE the batch goes out: with parallel
	// DistSender fan-out, a batch that returns an error may still have
	// applied some of its per-range sub-batches, and those intents must be
	// resolvable at abort — recording only on success orphans them, blocking
	// every later reader of the keys. Resolution of a key that was never
	// actually written is a no-op, so over-recording is safe.
	t.mu.Lock()
	for _, r := range reqs {
		switch r.Method {
		case kvpb.Put, kvpb.Delete:
			t.noteIntentLocked(r.Key)
		case kvpb.DeleteRange:
			t.mu.spans = append(t.mu.spans, keys.Span{
				Key: r.Key.Clone(), EndKey: r.EndKey.Clone(),
			})
		}
	}
	t.mu.Unlock()
	resp, err := t.send(ctx, t.batch(reqs))
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	for i, r := range reqs {
		if r.Method == kvpb.DeleteRange && i < len(resp.Responses) {
			// The response reports which keys the range delete tombstoned;
			// track them as point intents for precise resolution (the span
			// recorded above stays as the safety net).
			for _, kv := range resp.Responses[i].Rows {
				t.noteIntentLocked(kv.Key)
			}
		}
	}
	t.mu.Unlock()
	return resp, nil
}

func (t *Txn) noteIntentLocked(key keys.Key) {
	if t.mu.intents == nil {
		t.mu.intents = make(map[string]keys.Key)
	}
	t.mu.intents[string(key)] = key.Clone()
}

// Get reads a key within the transaction.
func (t *Txn) Get(ctx context.Context, key keys.Key) ([]byte, bool, error) {
	resp, err := t.Send(ctx, kvpb.Request{Method: kvpb.Get, Key: key})
	if err != nil {
		return nil, false, err
	}
	return resp.Responses[0].Value, resp.Responses[0].Exists, nil
}

// Put writes a key within the transaction. See Send for who owns key and
// value afterwards.
func (t *Txn) Put(ctx context.Context, key keys.Key, value []byte) error {
	_, err := t.Send(ctx, kvpb.Request{Method: kvpb.Put, Key: key, Value: value})
	return err
}

// Delete removes a key within the transaction.
func (t *Txn) Delete(ctx context.Context, key keys.Key) error {
	_, err := t.Send(ctx, kvpb.Request{Method: kvpb.Delete, Key: key})
	return err
}

// Scan reads a span within the transaction: all of it, or its first maxKeys
// rows when maxKeys is positive.
func (t *Txn) Scan(ctx context.Context, span keys.Span, maxKeys int64) ([]kvpb.KeyValue, error) {
	var rows []kvpb.KeyValue
	for {
		req := kvpb.Request{Method: kvpb.Scan, Key: span.Key, EndKey: span.EndKey}
		if maxKeys > 0 {
			req.MaxKeys = maxKeys - int64(len(rows))
		}
		resp, err := t.Send(ctx, req)
		if err != nil {
			return nil, err
		}
		page := resp.Responses[0]
		if rows == nil {
			rows = page.Rows
		} else {
			rows = append(rows, page.Rows...)
		}
		// A page can come back short of its limit with more to read: the
		// overlay removed rows this transaction deleted.
		if page.ResumeSpan == nil || (maxKeys > 0 && int64(len(rows)) >= maxKeys) {
			return rows, nil
		}
		span = *page.ResumeSpan
	}
}

// Path labels of txn.tenant_commits.
const (
	pathOnePhase = "one_phase"
	pathTwoPhase = "two_phase"
	pathReadOnly = "read_only"
)

// Commit makes the transaction's writes visible at its timestamp. A
// buffering transaction sends its writes as one commit batch; if a single
// range took all of them they are committed already (one phase), otherwise
// they landed as intents, which Commit resolves as a direct transaction's
// are (two phases). A failed Commit leaves no intents behind.
func (t *Txn) Commit(ctx context.Context) error {
	t.mu.Lock()
	if t.mu.finished {
		aborted := t.mu.aborted
		t.mu.Unlock()
		if aborted {
			return &kvpb.TransactionAbortedError{TxnID: t.meta.ID}
		}
		return nil
	}
	t.mu.finished = true
	writes := t.mu.buf.requests()
	t.mu.buf = writeBuffer{}
	direct := t.mu.direct
	t.mu.Unlock()
	sp := trace.SpanFromContext(ctx)
	switch {
	case direct:
		sp.Eventf("commit 2pc txn=%d direct", t.meta.ID)
		intents, spans := t.footprint()
		return t.resolveCommitted(ctx, intents, spans)
	case len(writes) == 0:
		t.coord.obs.TxnCommit(t.coord.tenant, pathReadOnly)
		return nil
	}
	resp, err := t.sendCommit(ctx, writes)
	if err == nil && resp.Committed {
		sp.Eventf("commit 1pc txn=%d writes=%d", t.meta.ID, len(writes))
		t.coord.obs.TxnCommit(t.coord.tenant, pathOnePhase)
		return nil
	}
	// Any part of the commit batch may have landed as intents, also when the
	// batch failed (see sendIntents).
	intents := make([]keys.Key, len(writes))
	for i := range writes {
		intents[i] = writes[i].Key
	}
	if err != nil {
		t.mu.Lock()
		t.mu.aborted = true
		t.mu.Unlock()
		// COMMIT's caller does not Abort afterwards, so the intents a failed
		// commit laid down are removed here. Where the outcome is ambiguous
		// this decides nothing: a one-phase commit left none.
		if rerr := t.resolve(ctx, intents, nil, false); rerr != nil {
			sp.Eventf("abort failed txn=%d: %v", t.meta.ID, rerr)
		}
		return err
	}
	sp.Eventf("commit 2pc txn=%d ranges=%d", t.meta.ID, resp.Ranges)
	return t.resolveCommitted(ctx, intents, nil)
}

// resolveCommitted is the second phase of a two-phase commit.
func (t *Txn) resolveCommitted(ctx context.Context, intents []keys.Key, spans []keys.Span) error {
	if err := t.resolve(ctx, intents, spans, true); err != nil {
		return err
	}
	t.coord.obs.TxnCommit(t.coord.tenant, pathTwoPhase)
	return nil
}

// Abort rolls the transaction back: buffered writes are dropped, intents
// removed. A transaction that only buffered sends nothing.
func (t *Txn) Abort(ctx context.Context) error {
	t.mu.Lock()
	if t.mu.finished {
		t.mu.Unlock()
		return nil
	}
	t.mu.finished = true
	t.mu.aborted = true
	t.mu.buf = writeBuffer{}
	t.mu.Unlock()
	intents, spans := t.footprint()
	return t.resolve(ctx, intents, spans, false)
}

// maxFinishAttempts bounds how often a commit or resolve batch is sent.
const maxFinishAttempts = 8

// backoff sleeps before the retry-th retry (from 1) of the transaction, or of
// its commit or resolve batch: exponential, jittered by transaction ID. A
// retry contends on exactly what failed the previous attempt — the other
// transaction of a symmetric read-modify-write pair, lease or routing churn —
// and a tight loop just re-collides with it, to the point of livelock.
func (t *Txn) backoff(retry int) {
	shift := retry - 1
	if shift > 4 {
		shift = 4
	}
	d := (100 * time.Microsecond) << uint(shift)
	d += time.Duration(t.meta.ID%13) * 37 * time.Microsecond
	t.coord.clock.Physical().Sleep(d)
}

// sendCommit sends the commit batch. A failure that may follow application —
// a lost response — must not turn a committed transaction into a reported
// abort, and after a one-phase commit there are no intents whose removal
// would make the abort true. So the batch is retried as it is, same ID and
// timestamp, and the range recognises its own first application
// (kvserver.evaluateBatch): a write conflict it still reports is therefore a
// definite abort. If retrying does not settle it the error is a
// kvpb.AmbiguousCommitError.
func (t *Txn) sendCommit(ctx context.Context, writes []kvpb.Request) (*kvpb.BatchResponse, error) {
	ba := t.batch(writes)
	ba.TxnWrites = len(writes)
	var err error
	maybeApplied := false
	for attempt := 0; attempt < maxFinishAttempts; attempt++ {
		if attempt > 0 {
			t.coord.obs.TxnCommitRetry(t.coord.tenant)
			t.backoff(attempt)
		}
		if err = ctx.Err(); err != nil {
			break
		}
		var resp *kvpb.BatchResponse
		if resp, err = t.send(ctx, ba); err == nil {
			return resp, nil
		}
		if kvpb.IsConflict(err) {
			return nil, err
		}
		// An injected fault stands for a transport failure, retriable or
		// not: it says nothing about whether the batch applied.
		retriable := kvpb.IsRetriable(err)
		maybeApplied = maybeApplied || retriable || faultinject.IsInjected(err)
		if !retriable {
			break
		}
	}
	if maybeApplied {
		return nil, &kvpb.AmbiguousCommitError{TxnID: t.meta.ID, Cause: err}
	}
	return nil, err
}

// footprint returns what a direct transaction's intent batches may have
// written: point keys in key order, and DeleteRange spans.
func (t *Txn) footprint() ([]keys.Key, []keys.Span) {
	t.mu.Lock()
	intents := make([]keys.Key, 0, len(t.mu.intents))
	for _, k := range t.mu.intents {
		intents = append(intents, k)
	}
	spans := t.mu.spans
	t.mu.Unlock()
	// Key order, not map order: the resolution batch's request order decides
	// which key a redirect retry re-routes by, so map iteration here made
	// the fault-consult schedule — and with it same-seed chaos replay —
	// depend on Go's per-run map randomization whenever a fresh split
	// divided a transaction's footprint.
	sort.Slice(intents, func(i, j int) bool { return intents[i].Less(intents[j]) })
	return intents, spans
}

// resolve finalizes the transaction's intents on the given keys (in key
// order) and spans. Resolving a key that holds no intent of this transaction
// is a no-op.
func (t *Txn) resolve(ctx context.Context, intents []keys.Key, spans []keys.Span, commit bool) error {
	if len(intents) == 0 && len(spans) == 0 {
		return nil
	}
	trace.SpanFromContext(ctx).Eventf("resolve %d intents txn=%d commit=%v", len(intents), t.meta.ID, commit)
	reqs := make([]kvpb.Request, 0, len(intents)+len(spans))
	for _, k := range intents {
		reqs = append(reqs, kvpb.Request{
			Method:        kvpb.ResolveIntent,
			Key:           k,
			ResolveTxnID:  t.meta.ID,
			ResolveCommit: commit,
			ResolveTs:     t.meta.Ts,
		})
	}
	// DeleteRange footprints resolve by span: the leaseholder enumerates
	// this transaction's intents itself, covering keys the coordinator never
	// learned about because the batch failed after partial application.
	for _, sp := range spans {
		reqs = append(reqs, kvpb.Request{
			Method:        kvpb.ResolveIntentRange,
			Key:           sp.Key,
			EndKey:        sp.EndKey,
			ResolveTxnID:  t.meta.ID,
			ResolveCommit: commit,
			ResolveTs:     t.meta.Ts,
		})
	}
	// Resolution is non-transactional and idempotent; retry on routing
	// errors until it lands. Each attempt honors cancellation.
	ba := &kvpb.BatchRequest{Tenant: t.coord.tenant, Timestamp: t.meta.Ts, Requests: reqs}
	var lastErr error
	for attempt := 0; attempt < maxFinishAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("txn: resolving %d intents: %w", len(reqs), err)
		}
		if attempt > 0 {
			t.backoff(attempt)
		}
		if _, lastErr = t.coord.sender.Send(ctx, ba); lastErr == nil {
			return nil
		}
		if !kvpb.IsRetriable(lastErr) {
			return lastErr
		}
	}
	return fmt.Errorf("txn: resolving %d intents: %w", len(reqs), lastErr)
}

// RunTxn executes fn inside a transaction, retrying it from scratch on
// retriable errors (write conflicts, redirects). fn must be idempotent up to
// its writes: each retry begins a fresh transaction. fn receives a context
// carrying the coordinator's txn.run span, so work done inside the
// transaction nests under it in the request trace.
func (c *Coordinator) RunTxn(ctx context.Context, fn func(context.Context, *Txn) error) error {
	ctx, sp := trace.StartSpan(ctx, "txn.run")
	defer sp.Finish()
	const maxAttempts = 256
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		t := c.Begin()
		if attempt == 0 {
			sp.SetAttr("txn.id", t.meta.ID)
		}
		sp.Eventf("begin txn=%d ts=%v attempt=%d", t.meta.ID, t.meta.Ts, attempt)
		err := fn(ctx, t)
		if err == nil {
			err = t.Commit(ctx)
		}
		if err == nil {
			sp.Eventf("commit txn=%d", t.meta.ID)
			sp.SetAttr("txn.attempts", attempt+1)
			return nil
		}
		if aerr := t.Abort(ctx); aerr != nil {
			// The retry loop's own error wins, but an abort failure is worth a
			// trace event: it means intents may linger for lazy resolution.
			sp.Eventf("abort failed txn=%d: %v", t.meta.ID, aerr)
		}
		if !kvpb.IsRetriable(err) {
			sp.Eventf("abort txn=%d: %v", t.meta.ID, err)
			sp.SetAttr("txn.attempts", attempt+1)
			return err
		}
		sp.Eventf("retry attempt=%d: %v", attempt+1, err)
		c.obs.TxnRetry(c.tenant)
		lastErr = err
		// Advance our clock reading past the conflict so the next attempt
		// starts above it.
		var wto *kvpb.WriteTooOldError
		if errors.As(err, &wto) {
			c.clock.Update(wto.ActualTs)
		}
		t.backoff(attempt + 1)
	}
	return fmt.Errorf("txn: retry budget exhausted: %w", lastErr)
}

// NewCoordinatorForDistSender is a convenience constructor wiring a
// DistSender directly.
func NewCoordinatorForDistSender(ds *kvserver.DistSender, cl *kvserver.Cluster) *Coordinator {
	return NewCoordinator(ds, cl.Clock(), ds.Identity().Tenant)
}
