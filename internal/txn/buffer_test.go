package txn

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/randutil"
)

// belowFilter is the model test's scan evaluator, and its spec is the
// test's own, opaque to kvserver and txn: one byte, a bound. A row passes
// when its value's first byte is below the bound.
type belowFilter struct{ bound byte }

func (belowFilter) Begin(spec []byte) (kvserver.ScanFold, error) {
	if len(spec) != 1 {
		return nil, fmt.Errorf("spec %q is not one byte", spec)
	}
	return belowFilter{spec[0]}, nil
}

func (f belowFilter) Row(value []byte) (bool, error) {
	return len(value) > 0 && value[0] < f.bound, nil
}
func (belowFilter) Finish(*kvpb.Page) error { return nil }

// A transaction's reads must see the stored rows with its own buffered
// writes laid over them, whatever shape the read takes: point gets, scans
// paged by MaxKeys, scans crossing a range boundary, and scans with a filter
// pushed down to KV (which the buffered rows bypass, so the check applies the
// predicate again, as the SQL layer does). The reference is a map.
func TestBufferedReadsMatchModel(t *testing.T) {
	const nKeys = 40
	name := func(i int) string { return fmt.Sprintf("k%02d", i) }
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			c, coord := newTestSetup(t)
			kvserver.RegisterScanEvaluator(belowFilter{})
			t.Cleanup(func() { kvserver.RegisterScanEvaluator(nil) })
			ctx := context.Background()
			rng := randutil.NewRand(seed)
			value := func() []byte { return []byte{byte(rng.Intn(10)), byte(rng.Intn(256))} }

			// model is what the open transaction should read; committed is what
			// the last successful commit left behind.
			model := map[string][]byte{}
			if err := coord.RunTxn(ctx, func(ctx context.Context, tx *Txn) error {
				for i := 0; i < nKeys; i++ {
					if rng.Intn(2) == 0 {
						model[name(i)] = value()
						if err := tx.Put(ctx, k(name(i)), model[name(i)]); err != nil {
							return err
						}
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if seed%2 == 0 {
				if err := c.SplitAt(k(name(nKeys / 2))); err != nil {
					t.Fatal(err)
				}
			}
			const threshold = 5
			filter := []byte{threshold}
			passes := func(v []byte) bool { return v[0] < threshold }

			// expect returns the model's rows in [lo, hi), in key order.
			expect := func(lo, hi int, filtered bool) []string {
				var out []string
				for i := lo; i < hi; i++ {
					if v, ok := model[name(i)]; ok && (!filtered || passes(v)) {
						out = append(out, name(i)+"="+string(v))
					}
				}
				return out
			}
			committed, commits := model, 0
			var tx *Txn
			// finish commits the open transaction, if any, and opens the next.
			// A commit can legitimately fail: a range's timestamp cache folds
			// its span reads into an ownerless low-water mark past 64 of them,
			// and a transaction that was reading at the time is then pushed by
			// its own reads. Its writes must then be gone.
			finish := func() {
				t.Helper()
				if tx != nil {
					var wto *kvpb.WriteTooOldError
					switch err := tx.Commit(ctx); {
					case err == nil:
						committed = model
						commits++
					case !errors.As(err, &wto):
						t.Fatal(err)
					}
				}
				tx = coord.begin()
				model = make(map[string][]byte, len(committed))
				for name, v := range committed {
					model[name] = v
				}
			}
			finish()
			pages := 0
			scan := func(lo, hi int, maxKeys int64, filtered bool) []string {
				t.Helper()
				req := kvpb.Request{Method: kvpb.Scan, Key: k(name(lo)), EndKey: k(name(hi)), MaxKeys: maxKeys}
				if filtered {
					req.Filter = filter
				}
				var out []string
				var last keys.Key
				for n := 0; ; n++ {
					if n > 2*nKeys {
						t.Fatalf("scan [%d,%d) max=%d did not terminate", lo, hi, maxKeys)
					}
					pages++
					resp, err := tx.Send(ctx, req)
					if err != nil {
						t.Fatal(err)
					}
					page := resp.Responses[0]
					if maxKeys > 0 && int64(len(page.Rows)) > maxKeys {
						t.Fatalf("page of %d rows exceeds MaxKeys %d", len(page.Rows), maxKeys)
					}
					for _, kv := range page.Rows {
						if last != nil && !last.Less(kv.Key) {
							t.Fatalf("scan rows out of order: %s after %s", kv.Key, last)
						}
						last = kv.Key
						if filtered && !passes(kv.Value) {
							continue // a buffered row the KV-side filter never saw
						}
						out = append(out, string(kv.Key[len(k("")):])+"="+string(kv.Value))
					}
					if page.ResumeSpan == nil {
						return out
					}
					req.Key, req.EndKey = page.ResumeSpan.Key, page.ResumeSpan.EndKey
				}
			}

			for op := 0; op < 300; op++ {
				if pages > 15 {
					finish()
					pages = 0
				}
				i := rng.Intn(nKeys)
				switch p := rng.Intn(10); {
				case p < 3:
					model[name(i)] = value()
					if err := tx.Put(ctx, k(name(i)), model[name(i)]); err != nil {
						t.Fatal(err)
					}
				case p < 5:
					delete(model, name(i))
					if err := tx.Delete(ctx, k(name(i))); err != nil {
						t.Fatal(err)
					}
				case p < 7:
					v, ok, err := tx.Get(ctx, k(name(i)))
					if err != nil {
						t.Fatal(err)
					}
					if want, wantOK := model[name(i)]; ok != wantOK || string(v) != string(want) {
						t.Fatalf("op %d: get %s = %q %v, model %q %v", op, name(i), v, ok, want, wantOK)
					}
				default:
					lo := rng.Intn(nKeys)
					hi := lo + 1 + rng.Intn(nKeys-lo)
					maxKeys := []int64{0, 0, 1, 2, 3, 7}[rng.Intn(6)]
					filtered := rng.Intn(3) == 0
					got, want := scan(lo, hi, maxKeys, filtered), expect(lo, hi, filtered)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("op %d: scan [%d,%d) max=%d filter=%v\n got  %q\n want %q",
							op, lo, hi, maxKeys, filtered, got, want)
					}
					if maxKeys > 0 && !filtered {
						// Txn.Scan's limit is the first maxKeys rows of the span.
						pages += 2
						rows, err := tx.Scan(ctx, keys.Span{Key: k(name(lo)), EndKey: k(name(hi))}, maxKeys)
						if err != nil {
							t.Fatal(err)
						}
						if n := int64(len(want)); n > maxKeys {
							want = want[:maxKeys]
						}
						if len(rows) != len(want) {
							t.Fatalf("op %d: Scan [%d,%d) max=%d returned %d rows, want %d",
								op, lo, hi, maxKeys, len(rows), len(want))
						}
					}
				}
			}
			finish()
			if commits < 5 {
				t.Fatalf("only %d transactions committed", commits)
			}
			// What the transactions read is what they committed.
			var stored []string
			if err := coord.RunTxn(ctx, func(ctx context.Context, tx *Txn) error {
				rows, err := tx.Scan(ctx, keys.MakeTenantSpan(2), 0)
				stored = stored[:0]
				for _, kv := range rows {
					stored = append(stored, string(kv.Key[len(k("")):])+"="+string(kv.Value))
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}
			want := expect(0, nKeys, false)
			if fmt.Sprint(stored) != fmt.Sprint(want) {
				t.Fatalf("committed state\n got  %q\n want %q", stored, want)
			}
		})
	}
}
