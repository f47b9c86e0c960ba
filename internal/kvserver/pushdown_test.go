package kvserver

import (
	"context"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
)

// withScanEvaluator registers ev for the rest of the test. The SQL layer
// registers the product's evaluator; kvserver's tests link no SQL layer, so
// without this no evaluator is registered.
func withScanEvaluator(t *testing.T, ev ScanEvaluator) {
	t.Helper()
	RegisterScanEvaluator(ev)
	t.Cleanup(func() { RegisterScanEvaluator(nil) })
}

// The tests' own push-down spec, as opaque to kvserver as the SQL layer's:
// a tag byte, then a value prefix. A filter ('f') keeps the rows whose value
// starts with the prefix; a grouping ('g') folds them instead, into a count
// per distinct value. A partial row's key is a value, outside every table's
// keyspace, and its value the uvarint count of the rows holding it.
func filterSpec(prefix string) []byte { return append([]byte{'f'}, prefix...) }

var countSpec = []byte{'g'}

type prefixEvaluator struct{}

func (prefixEvaluator) Begin(spec []byte) (ScanFold, error) {
	if len(spec) == 0 || (spec[0] != 'f' && spec[0] != 'g') {
		return nil, fmt.Errorf("unknown spec %q", spec)
	}
	return &prefixFold{group: spec[0] == 'g', prefix: string(spec[1:]), counts: map[string]uint64{}}, nil
}

type prefixFold struct {
	group  bool
	prefix string
	order  []string
	counts map[string]uint64
}

func (f *prefixFold) Row(value []byte) (bool, error) {
	if !strings.HasPrefix(string(value), f.prefix) {
		return false, nil
	}
	if !f.group {
		return true, nil
	}
	if _, ok := f.counts[string(value)]; !ok {
		f.order = append(f.order, string(value))
	}
	f.counts[string(value)]++
	return false, nil
}

func (f *prefixFold) Finish(page *kvpb.Page) error {
	if page != nil {
		for _, g := range f.order {
			page.AppendOwned([]byte("group/"+g), binary.AppendUvarint(nil, f.counts[g]))
		}
	}
	return nil
}

// A node with no evaluator cannot answer a pushed-down scan, and must not
// answer it with rows: kvserver cannot tell a filter's spec from an
// aggregation's, and rows would be taken for partial aggregates.
func TestPushdownWithoutEvaluatorFailsClosed(t *testing.T) {
	RegisterScanEvaluator(nil)
	c := newTestCluster(t, 1)
	ds := NewDistSender(c, Identity{Tenant: 2})
	loadKeys(t, ds, 5)
	span := keys.MakeTenantSpan(2)
	ctx := context.Background()
	for _, spec := range [][]byte{countSpec, filterSpec("v")} {
		resp, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{{
			Method: kvpb.Scan, Key: span.Key, EndKey: span.EndKey, Filter: spec}}})
		if err == nil {
			t.Fatalf("a scan pushing %q with no evaluator returned %d rows, want an error", spec, len(resp.Responses[0].Rows))
		} else if !strings.Contains(err.Error(), "no evaluator") {
			t.Fatalf("a scan pushing %q with no evaluator: %v", spec, err)
		}
	}
}

// MaxKeys bounds the rows a pushed-down aggregation scans per range request,
// and rangeClip.merge re-applies it to the merged rows, cutting at a row's
// key. Partial rows are keyed by group, not by table key, so a cut would
// resume at a group key. It never happens: a range's request is limited to
// what the ranges before it left of MaxKeys, counted in partial rows, and a
// range returns no more partial rows than it scanned rows. Every row holds a
// value of its own, the most partial rows a scan can return, and the pages
// together must count every row exactly once.
func TestPushdownPartialsNeverCutByMergeLimit(t *testing.T) {
	withScanEvaluator(t, prefixEvaluator{})
	// The walk visits one range at a time; the subtest keeps that mode's name.
	t.Run("parallelism=1", func(t *testing.T) {
		c := newTestCluster(t, 3)
		ds := NewDistSender(c, Identity{Tenant: 2})
		const n = 40
		loadKeys(t, ds, n)
		splitTenantKeyspace(t, c, "k005", "k013", "k014", "k029")
		span := keys.MakeTenantSpan(2)
		for _, maxKeys := range []int64{1, 3, 7, 16, 100} {
			req := kvpb.Request{Method: kvpb.Scan, Key: span.Key, EndKey: span.EndKey, MaxKeys: maxKeys, Filter: countSpec}
			counted := map[string]uint64{}
			for page := 0; ; page++ {
				if page > n {
					t.Fatalf("maxKeys=%d: scan did not terminate", maxKeys)
				}
				resp, err := ds.Send(context.Background(), &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{req}})
				if err != nil {
					t.Fatal(err)
				}
				r := resp.Responses[0]
				if int64(len(r.Rows)) > maxKeys {
					t.Fatalf("maxKeys=%d: page %d holds %d partial rows", maxKeys, page, len(r.Rows))
				}
				for _, row := range r.Rows {
					count, _ := binary.Uvarint(row.Value)
					counted[string(row.Key)] += count
				}
				if r.ResumeSpan == nil {
					break
				}
				if !span.ContainsKey(r.ResumeSpan.Key) {
					t.Fatalf("maxKeys=%d: page %d resumes at %q, not a table key", maxKeys, page, r.ResumeSpan.Key)
				}
				req.Key, req.EndKey = r.ResumeSpan.Key, r.ResumeSpan.EndKey
			}
			if len(counted) != n {
				t.Fatalf("maxKeys=%d: %d groups, want %d", maxKeys, len(counted), n)
			}
			for g, count := range counted {
				if count != 1 {
					t.Fatalf("maxKeys=%d: group %q counted %d times", maxKeys, g, count)
				}
			}
		}
	})
}

// A pushed-down scan reports what it read, not what it returned: a scan that
// folds every row into partials has ScannedBytes equal to a plain scan's, and
// a plain scan's equal to the bytes it returned. Across ranges the merged
// response counts every range's bytes, not only the first range's.
func TestPushdownScannedBytesCountRowsRead(t *testing.T) {
	withScanEvaluator(t, prefixEvaluator{})
	for _, splits := range [][]string{nil, {"k004", "k008", "k012"}} {
		t.Run(fmt.Sprint("ranges=", len(splits)+1), func(t *testing.T) {
			c := newTestCluster(t, 3)
			ds := NewDistSender(c, Identity{Tenant: 2})
			loadKeys(t, ds, 16)
			splitTenantKeyspace(t, c, splits...)
			span := keys.MakeTenantSpan(2)
			scan := func(spec []byte) *kvpb.BatchResponse {
				resp, err := ds.Send(context.Background(), &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{{
					Method: kvpb.Scan, Key: span.Key, EndKey: span.EndKey, Filter: spec}}})
				if err != nil {
					t.Fatal(err)
				}
				if resp.Ranges != len(splits)+1 {
					t.Fatalf("scan visited %d ranges, want %d", resp.Ranges, len(splits)+1)
				}
				return resp
			}
			plain, pushed := scan(nil), scan(countSpec)
			if returned := plain.ReadBytes(); returned == 0 || plain.Responses[0].ScannedBytes != returned {
				t.Fatalf("plain scan read %d bytes, returned %d", plain.Responses[0].ScannedBytes, returned)
			}
			if p, r := pushed.Responses[0].ScannedBytes, plain.Responses[0].ScannedBytes; p != r {
				t.Fatalf("pushed scan read %d bytes, plain scan %d", p, r)
			}
		})
	}
}
