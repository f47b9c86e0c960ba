package kvserver

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"crdbserverless/internal/hlc"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/lsm"
	"crdbserverless/internal/mvcc"
)

// evalResult is what evalBatch returned for one batch.
type evalResult struct {
	resp    *kvpb.BatchResponse
	ents    mvcc.Entries
	written int64
	err     error
}

// evalApply evaluates ba with evalBatch and applies its entries to e, as
// every replica of the range does once the command commits.
func evalApply(t *testing.T, e *lsm.Engine, tsc *tsCache, ba *kvpb.BatchRequest) evalResult {
	t.Helper()
	var r evalResult
	r.resp, r.ents, r.written, r.err = evalBatch(e, tsc, ba, ba.ReadTs())
	if r.err == nil && len(r.ents.List) > 0 {
		if err := e.ApplyBatch(r.ents.List); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestEvalBatch drives the leaseholder's evaluation of a batch on a bare
// engine and timestamp cache: no cluster, node or replication group. Each
// case evaluates and applies its prep batches, then its batch.
func TestEvalBatch(t *testing.T) {
	a, b, c := tenantKey(2, "a"), tenantKey(2, "b"), tenantKey(2, "c")
	all := keys.Span{Key: a, EndKey: tenantKey(2, "z")}
	at := func(wall int64) hlc.Timestamp { return hlc.Timestamp{WallTime: wall} }
	txn := func(id uint64, wall int64, writes int, reqs ...kvpb.Request) *kvpb.BatchRequest {
		return &kvpb.BatchRequest{Tenant: 2, Txn: &kvpb.TxnMeta{ID: id, Ts: at(wall)}, TxnWrites: writes, Requests: reqs}
	}
	plain := func(wall int64, reqs ...kvpb.Request) *kvpb.BatchRequest {
		return &kvpb.BatchRequest{Tenant: 2, Timestamp: at(wall), Requests: reqs}
	}
	del := kvpb.Request{Method: kvpb.Delete, Key: b}
	commit := txn(1, 5, 2, putReq(a, "1"), del)

	intents := func(t *testing.T, e *lsm.Engine, txnID uint64) []keys.Key {
		t.Helper()
		iks, err := mvcc.IntentKeys(e, all, txnID)
		if err != nil {
			t.Fatal(err)
		}
		return iks
	}
	committedAt := func(t *testing.T, e *lsm.Engine, k keys.Key, ts hlc.Timestamp) mvcc.Version {
		t.Helper()
		v, ok, err := new(mvcc.Lookup).CommittedVersionAt(e, k, ts)
		if err != nil || !ok {
			t.Fatalf("no committed version of %s at %s: %v", k, ts, err)
		}
		return v
	}

	for _, tc := range []struct {
		name  string
		prep  []*kvpb.BatchRequest
		ba    *kvpb.BatchRequest
		check func(t *testing.T, e *lsm.Engine, tsc *tsCache, got evalResult)
	}{{
		name: "a write below another transaction's read is pushed",
		prep: []*kvpb.BatchRequest{txn(1, 10, 0, getReq(a))},
		ba:   txn(2, 5, 0, putReq(a, "x")),
		check: func(t *testing.T, e *lsm.Engine, tsc *tsCache, got evalResult) {
			var wto *kvpb.WriteTooOldError
			if !errors.As(got.err, &wto) || wto.ActualTs != at(10).Next() {
				t.Fatalf("err = %v, want WriteTooOldError at %s", got.err, at(10).Next())
			}
			if got.resp != nil || len(got.ents.List) != 0 || got.written != 0 {
				t.Fatalf("a pushed write yielded %+v, %d entries, %d bytes", got.resp, len(got.ents.List), got.written)
			}
		},
	}, {
		// A non-transactional write is pushed by every read but its own
		// batch's, which records only once the batch is checked.
		name: "a batch's own read does not push its write",
		ba:   plain(5, getReq(a), putReq(a, "x")),
		check: func(t *testing.T, e *lsm.Engine, tsc *tsCache, got evalResult) {
			if got.err != nil || len(got.ents.List) != 1 || got.written != int64(len(a)+1) {
				t.Fatalf("Get then Put = %d entries, %d bytes, %v", len(got.ents.List), got.written, got.err)
			}
			if read := tsc.maxReadOther(a, 0); read != at(5) {
				t.Fatalf("the batch's read recorded at %s, want %s", read, at(5))
			}
		},
	}, {
		name: "a commit batch with every write commits in one phase",
		ba:   commit,
		check: func(t *testing.T, e *lsm.Engine, tsc *tsCache, got evalResult) {
			if got.err != nil || !got.resp.Committed {
				t.Fatalf("commit = %+v, %v; want Committed", got.resp, got.err)
			}
			if iks := intents(t, e, 1); len(iks) != 0 {
				t.Fatalf("a one-phase commit laid intents on %v", iks)
			}
			if v := committedAt(t, e, a, at(5)); string(v.Data) != "1" || v.TxnID != 0 {
				t.Fatalf("a@5 = %+v, want committed 1", v)
			}
			if v := committedAt(t, e, b, at(5)); !v.Tombstone || v.TxnID != 0 {
				t.Fatalf("b@5 = %+v, want a committed tombstone", v)
			}
		},
	}, {
		name: "a commit batch missing writes lays intents",
		ba:   txn(1, 5, 3, putReq(a, "1"), del),
		check: func(t *testing.T, e *lsm.Engine, tsc *tsCache, got evalResult) {
			if got.err != nil || got.resp.Committed {
				t.Fatalf("partial commit = %+v, %v; want no Committed", got.resp, got.err)
			}
			if iks := intents(t, e, 1); !slices.EqualFunc(iks, []keys.Key{a, b}, keys.Key.Equal) {
				t.Fatalf("intents = %v, want a and b", iks)
			}
		},
	}, {
		name: "a re-sent applied commit succeeds without a command",
		prep: []*kvpb.BatchRequest{commit},
		ba:   commit,
		check: func(t *testing.T, e *lsm.Engine, tsc *tsCache, got evalResult) {
			if got.err != nil || !got.resp.Committed || len(got.resp.Responses) != 2 {
				t.Fatalf("re-sent commit = %+v, %v; want Committed", got.resp, got.err)
			}
			if len(got.ents.List) != 0 || got.written != 0 {
				t.Fatalf("re-sent commit yielded %d entries, %d bytes", len(got.ents.List), got.written)
			}
		},
	}, {
		name: "DeleteRange returns the keys it deletes",
		prep: []*kvpb.BatchRequest{plain(1, putReq(a, "1"), putReq(b, "2"), putReq(c, "3"))},
		ba:   txn(1, 5, 0, kvpb.Request{Method: kvpb.DeleteRange, Key: a, EndKey: c}),
		check: func(t *testing.T, e *lsm.Engine, tsc *tsCache, got evalResult) {
			if got.err != nil {
				t.Fatal(got.err)
			}
			var deleted []keys.Key
			for _, kv := range got.resp.Responses[0].Rows {
				deleted = append(deleted, kv.Key)
			}
			want := []keys.Key{a, b}
			if !slices.EqualFunc(deleted, want, keys.Key.Equal) || !slices.EqualFunc(intents(t, e, 1), want, keys.Key.Equal) {
				t.Fatalf("DeleteRange reported %v and laid intents on %v, want a and b", deleted, intents(t, e, 1))
			}
		},
	}, {
		name: "ResolveIntent commits an intent",
		prep: []*kvpb.BatchRequest{txn(1, 5, 0, putReq(a, "1"))},
		ba: plain(6, kvpb.Request{Method: kvpb.ResolveIntent, Key: a,
			ResolveTxnID: 1, ResolveCommit: true, ResolveTs: at(5)}),
		check: func(t *testing.T, e *lsm.Engine, tsc *tsCache, got evalResult) {
			if got.err != nil {
				t.Fatal(got.err)
			}
			if iks := intents(t, e, 1); len(iks) != 0 {
				t.Fatalf("intents left after the resolve: %v", iks)
			}
			if v := committedAt(t, e, a, at(5)); string(v.Data) != "1" {
				t.Fatalf("a@5 = %+v, want committed 1", v)
			}
		},
	}, {
		name: "an unsupported method fails",
		ba:   plain(1, kvpb.Request{Method: kvpb.Method(99), Key: a}),
		check: func(t *testing.T, e *lsm.Engine, tsc *tsCache, got evalResult) {
			if got.err == nil || !strings.Contains(got.err.Error(), "unsupported method") {
				t.Fatalf("err = %v, want an unsupported method", got.err)
			}
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			e, tsc := lsm.New(lsm.Options{}), newTSCache()
			defer e.Close()
			for _, ba := range tc.prep {
				if got := evalApply(t, e, tsc, ba); got.err != nil {
					t.Fatalf("prep: %v", got.err)
				}
			}
			tc.check(t, e, tsc, evalApply(t, e, tsc, tc.ba))
		})
	}
}

// A batch of scans alone draws no Lookup from the pool; a point read draws
// one. The pool is emptied first (two collections drop its contents), so a
// draw calls New.
func TestEvalScansOnlyDrawsNoLookup(t *testing.T) {
	var draws atomic.Int64
	saved := lookups.New
	lookups.New = func() any { draws.Add(1); return new(mvcc.Lookup) }
	t.Cleanup(func() { lookups.New = saved })
	e, tsc := lsm.New(lsm.Options{}), newTSCache()
	defer e.Close()
	span := keys.Span{Key: tenantKey(2, "a"), EndKey: tenantKey(2, "z")}
	for _, tc := range []struct {
		req  kvpb.Request
		want int64
	}{
		{kvpb.Request{Method: kvpb.Scan, Key: span.Key, EndKey: span.EndKey}, 0},
		{getReq(span.Key), 1},
	} {
		runtime.GC()
		runtime.GC()
		draws.Store(0)
		ba := &kvpb.BatchRequest{Tenant: 2, Timestamp: hlc.Timestamp{WallTime: 1}, Requests: []kvpb.Request{tc.req}}
		if _, _, _, err := evalBatch(e, tsc, ba, ba.ReadTs()); err != nil {
			t.Fatal(err)
		}
		if got := draws.Load(); got != tc.want {
			t.Fatalf("a %s batch drew %d Lookups from an empty pool, want %d", tc.req.Method, got, tc.want)
		}
	}
}
