package kvserver

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"crdbserverless/internal/hlc"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/lsm"
	"crdbserverless/internal/mvcc"
)

// evalBatch evaluates ba at readTs on a leaseholder's engine e, against the
// range's timestamp cache tsc. It returns the response, the entries of the
// command that replicates the batch's writes (none for a batch that writes
// nothing), and the logical bytes those writes add to the range. The caller
// holds the range latch, has checked that the range covers ba, and proposes
// the entries; evalBatch writes nothing to e.
//
// The latch serializes the range's batches: reads record into the cache and
// writes consult it, so a write can never land below a timestamp at which
// another transaction already read the key (the lost-update protection CRDB
// implements with its timestamp cache).
func evalBatch(e *lsm.Engine, tsc *tsCache, ba *kvpb.BatchRequest, readTs hlc.Timestamp) (*kvpb.BatchResponse, mvcc.Entries, int64, error) {
	var ents mvcc.Entries
	var txnID uint64
	if ba.Txn != nil {
		txnID = ba.Txn.ID
	}
	resp := kvpb.NewBatchResponse(readTs, len(ba.Requests))

	// The batch's point lookups run one at a time, in one Lookup. A batch
	// of scans alone makes none, and draws none.
	var look *mvcc.Lookup
	if !scansOnly(ba.Requests) {
		look = lookups.Get().(*mvcc.Lookup)
		defer func() {
			look.Release()
			lookups.Put(look)
		}()
	}

	// Reads record into the timestamp cache only after the whole batch has
	// been checked: a batch's own reads must not push its own writes (they
	// all happen atomically at one timestamp). A few spans fit on the stack.
	var spanBuf [4]keys.Span
	readSpans := spanBuf[:0]
	defer func() {
		for _, sp := range readSpans {
			tsc.recordRead(sp, readTs, txnID)
		}
	}()

	// checkWrite combines the timestamp-cache push with MVCC conflicts, and
	// returns the key's newest version, which the write's entries take.
	checkWrite := func(key keys.Key) (mvcc.Version, error) {
		if cached := tsc.maxReadOther(key, txnID); !cached.Less(readTs) {
			return mvcc.Version{}, &kvpb.WriteTooOldError{Key: key.Clone(), ActualTs: cached.Next()}
		}
		return look.CheckWriteConflict(e, key, readTs, txnID)
	}

	// The command's entries are built against the engine as it stands
	// before the batch. A batch writes every key at one timestamp, so a key
	// it writes twice gets one storage key, and the later entry wins within
	// the engine batch. Room for every point write is made up front.
	writes, size := 0, 0
	for _, r := range ba.Requests {
		if r.Method == kvpb.Put || r.Method == kvpb.Delete {
			writes++
			size += mvcc.PutBytes(r.Key, r.Value)
		}
	}
	ents.Grow(writes, size)
	// A commit batch (TxnWrites > 0) that arrives with every write its
	// transaction makes is committed here, in one command: its writes land
	// as committed versions rather than intents, after the same checks
	// any write gets. The range decides from what it received, not from what
	// the sender believed — a batch split across ranges, or clipped by a
	// stale descriptor on the way, holds fewer writes than TxnWrites and lays
	// down intents for the coordinator to resolve.
	commitBatch := ba.Txn != nil && ba.TxnWrites > 0
	onePhase := commitBatch && writes == ba.TxnWrites && writes == len(ba.Requests)
	writeTxnID := txnID
	if onePhase {
		writeTxnID = 0
	}

	// conflicted ends evaluation on a failed checkWrite. The coordinator
	// re-sends a commit batch whose response it lost, as it is, so a conflict
	// may be the batch meeting its own first application: if every write in
	// it is already there as a committed version at the transaction's
	// timestamp, applying it again would leave the store as it is, and the
	// batch succeeds without a command. A conflict that survives this check
	// is a definite abort.
	conflicted := func(err error) (*kvpb.BatchResponse, mvcc.Entries, int64, error) {
		if !commitBatch || !kvpb.IsConflict(err) {
			return nil, mvcc.Entries{}, 0, err
		}
		applied, aerr := alreadyCommitted(look, e, ba.Requests, readTs)
		if aerr != nil {
			return nil, mvcc.Entries{}, 0, aerr
		}
		if !applied {
			return nil, mvcc.Entries{}, 0, err
		}
		return &kvpb.BatchResponse{Timestamp: readTs, Committed: onePhase,
			Responses: make([]kvpb.Response, len(ba.Requests))}, mvcc.Entries{}, 0, nil
	}

	var written int64
	for _, r := range ba.Requests {
		switch r.Method {
		case kvpb.Get:
			v, ok, err := look.Get(e, r.Key, readTs, txnID)
			if err != nil {
				return nil, mvcc.Entries{}, 0, err
			}
			readSpans = append(readSpans, r.Span())
			resp.Responses = append(resp.Responses, kvpb.Response{Value: v, Exists: ok})
		case kvpb.Scan:
			out, err := evalScan(e, r, readTs, txnID, resp)
			if err != nil {
				return nil, mvcc.Entries{}, 0, err
			}
			readSpans = append(readSpans, r.Span())
			resp.Responses = append(resp.Responses, out)
		case kvpb.Put:
			prior, err := checkWrite(r.Key)
			if err != nil {
				return conflicted(err)
			}
			ents.Put(r.Key, mvcc.Version{Ts: readTs, TxnID: writeTxnID, Data: r.Value}, prior)
			written += int64(len(r.Key) + len(r.Value))
			resp.Responses = append(resp.Responses, kvpb.Response{})
		case kvpb.Delete:
			prior, err := checkWrite(r.Key)
			if err != nil {
				return conflicted(err)
			}
			ents.Put(r.Key, mvcc.Version{Ts: readTs, TxnID: writeTxnID, Tombstone: true}, prior)
			written += int64(len(r.Key))
			resp.Responses = append(resp.Responses, kvpb.Response{})
		case kvpb.DeleteRange:
			res, err := mvcc.Scan(e, r.Span(), readTs, txnID, 0)
			if err != nil {
				return nil, mvcc.Entries{}, 0, err
			}
			// Report the deleted keys so a transactional caller can track
			// (and later resolve) the intents this request lays down.
			readSpans = append(readSpans, r.Span())
			var deleted kvpb.Response
			for _, kv := range res.Rows {
				prior, err := checkWrite(kv.Key)
				if err != nil {
					return nil, mvcc.Entries{}, 0, err
				}
				ents.Put(kv.Key, mvcc.Version{Ts: readTs, TxnID: txnID, Tombstone: true}, prior)
				written += int64(len(kv.Key))
				deleted.Rows = append(deleted.Rows, kvpb.KeyValue{Key: kv.Key.Clone()})
			}
			resp.Responses = append(resp.Responses, deleted)
		case kvpb.ResolveIntent:
			if err := ents.Resolve(look, e, r.Key, r.ResolveTxnID, r.ResolveCommit, r.ResolveTs); err != nil {
				return nil, mvcc.Entries{}, 0, err
			}
			resp.Responses = append(resp.Responses, kvpb.Response{})
		case kvpb.ResolveIntentRange:
			// The leaseholder enumerates the transaction's intents in the
			// span and resolves each one.
			iks, err := mvcc.IntentKeys(e, r.Span(), r.ResolveTxnID)
			if err != nil {
				return nil, mvcc.Entries{}, 0, err
			}
			var out kvpb.Response
			for _, k := range iks {
				if err := ents.Resolve(look, e, k, r.ResolveTxnID, r.ResolveCommit, r.ResolveTs); err != nil {
					return nil, mvcc.Entries{}, 0, err
				}
				out.Rows = append(out.Rows, kvpb.KeyValue{Key: k})
			}
			resp.Responses = append(resp.Responses, out)
		default:
			return nil, mvcc.Entries{}, 0, fmt.Errorf("kvserver: unsupported method %s", r.Method)
		}
	}
	resp.Committed = onePhase
	return resp, ents, written, nil
}

// lookups recycles the storage of evalBatch's point lookups, released of
// their engine snapshots. A Lookup kept on each range instead would hold
// its iterator for every range of the cluster, idle ones included: 0.24 MB
// more live heap in the benchmark's cold_start fleet of 400 tenants.
var lookups = sync.Pool{New: func() any { return new(mvcc.Lookup) }}

// scansOnly reports whether every request of reqs is a Scan.
func scansOnly(reqs []kvpb.Request) bool {
	for _, r := range reqs {
		if r.Method != kvpb.Scan {
			return false
		}
	}
	return true
}

// alreadyCommitted reports whether every request of a commit batch is already
// in the engine as a committed version at exactly ts: the same bytes for a
// Put, a tombstone for a Delete.
func alreadyCommitted(look *mvcc.Lookup, e *lsm.Engine, reqs []kvpb.Request, ts hlc.Timestamp) (bool, error) {
	for _, r := range reqs {
		if r.Method != kvpb.Put && r.Method != kvpb.Delete {
			return false, nil
		}
		v, ok, err := look.CommittedVersionAt(e, r.Key, ts)
		if err != nil {
			return false, err
		}
		if !ok || v.Tombstone != (r.Method == kvpb.Delete) || !bytes.Equal(v.Data, r.Value) {
			return false, nil
		}
	}
	return true, nil
}

// evalScan serves a Scan from e. It reads into a pooled page when the pool
// has one, and owner, the batch response the rows go up in, owns it. A scan
// with no Filter returns its rows as they are stored.
func evalScan(e *lsm.Engine, r kvpb.Request, readTs hlc.Timestamp, txnID uint64, owner *kvpb.BatchResponse) (kvpb.Response, error) {
	page := kvpb.DrawPage()
	owner.KeepPage(page)
	if page == nil {
		page = new(kvpb.Page)
	}
	if len(r.Filter) != 0 {
		return evalPushedScan(e, r, readTs, txnID, page)
	}
	res, err := mvcc.ScanInto(e, r.Span(), readTs, txnID, r.MaxKeys, page)
	if err != nil {
		return kvpb.Response{}, err
	}
	out := kvpb.Response{Rows: res.Rows, ResumeSpan: res.Resume}
	for _, kv := range res.Rows {
		out.ScannedBytes += int64(len(kv.Key) + len(kv.Value))
	}
	return out, nil
}

// A ScanEvaluator evaluates what a Scan pushes down to the KV node in
// kvpb.Request.Filter: a filter, or an aggregation (the paper's §8 future
// work). kvserver knows nothing of rows or of the spec's format: the SQL
// layer registers the one evaluator, which decodes the specs and the values
// it wrote.
type ScanEvaluator interface {
	// Begin starts evaluating spec over one scan's rows.
	Begin(spec []byte) (ScanFold, error)
}

// A ScanFold is one scan's evaluation. The scan hands it every visible row in
// key order, then calls Finish exactly once, also when the scan failed. A
// row's value is engine memory that does not change, and the fold may keep
// referring to it until Finish.
type ScanFold interface {
	// Row reports whether the row with this value goes into the response as
	// it is. A filter keeps the rows that pass it; an aggregation keeps none
	// and folds the ones that pass instead.
	Row(value []byte) (keep bool, err error)
	// Finish appends to page what the fold built (an aggregation's partial
	// rows) and ends the fold. A nil page discards it.
	Finish(page *kvpb.Page) error
}

// scanEvaluator is the registered ScanEvaluator, nil if none is.
var scanEvaluator atomic.Pointer[ScanEvaluator]

var errNoScanEvaluator = errors.New("kvserver: no evaluator for a pushed-down scan")

// RegisterScanEvaluator makes ev the evaluator of every node's pushed-down
// scans. The SQL layer calls it once, when it is initialized; a nil ev
// unregisters.
func RegisterScanEvaluator(ev ScanEvaluator) {
	if ev == nil {
		scanEvaluator.Store(nil)
		return
	}
	scanEvaluator.Store(&ev)
}

// evalPushedScan serves a scan that pushes a filter or an aggregation down
// (§8), handing each row to the registered evaluator as the MVCC scan reaches
// it: a kept row goes into page, and a folded one never does. MaxKeys bounds
// the rows scanned, not the rows returned, and ScannedBytes counts every row
// scanned, as a plain scan's does.
//
// Without an evaluator every pushed scan fails: kvserver cannot tell a
// filter from an aggregation, and rows returned in place of partial
// aggregates would be read as partials.
func evalPushedScan(e *lsm.Engine, r kvpb.Request, readTs hlc.Timestamp, txnID uint64, page *kvpb.Page) (kvpb.Response, error) {
	ev := scanEvaluator.Load()
	if ev == nil {
		return kvpb.Response{}, errNoScanEvaluator
	}
	fold, err := (*ev).Begin(r.Filter)
	if err != nil {
		return kvpb.Response{}, err
	}
	var out kvpb.Response
	out.ResumeSpan, err = mvcc.ScanFunc(e, r.Span(), readTs, txnID, r.MaxKeys, func(enc, value []byte) error {
		out.ScannedBytes += int64(keys.DecodedBytesLen(enc) + len(value))
		keep, err := fold.Row(value)
		if keep && err == nil {
			err = page.AppendRow(enc, value)
		}
		return err
	})
	into := page
	if err != nil {
		into = nil
	}
	if ferr := fold.Finish(into); err == nil {
		err = ferr
	}
	if err != nil {
		return kvpb.Response{}, err
	}
	out.Rows = page.Rows
	return out, nil
}
