package txn

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
)

// scribble draws every page the pool gives and decodes junk keys over their
// slabs, then releases them: a key that still points into a released page
// changes.
func scribble(t *testing.T) {
	t.Helper()
	junkKey := keys.EncodeBytes(nil, []byte("zzzzzzzzzzzz"))
	var junk kvpb.BatchResponse
	for p := kvpb.DrawPage(); p != nil; p = kvpb.DrawPage() {
		for i := 0; i < 64; i++ {
			if err := p.AppendRow(junkKey, nil); err != nil {
				t.Fatal(err)
			}
		}
		junk.KeepPage(p)
	}
	junk.Release()
}

// One batch of two scans, each crossing three ranges (the DistSender fans the
// two out in parallel, and appends each range's page to the last), inside a
// transaction whose buffered writes the overlay lays over the first. The
// response is released, a second scan over another span reuses its pages,
// and whatever pages the pool still holds are scribbled over. What outlives
// the release must not have pointed into them: the resume spans, and the rows
// of a Txn.Scan, which releases nothing. The rows are checked against a
// model, copied with cloned keys before the release.
func TestScanPageOwnership(t *testing.T) {
	c, coord := newTestSetup(t)
	ctx := context.Background()
	name := func(prefix string, i int) string { return fmt.Sprintf("%s%02d", prefix, i) }
	setup := coord.begin()
	for i := 0; i < 30; i++ {
		for _, prefix := range []string{"a", "b", "c"} {
			if err := setup.Put(ctx, k(name(prefix, i)), []byte(name("v"+prefix, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := setup.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	for _, at := range []string{"a10", "a20", "b", "b10", "b20", "c"} {
		if err := c.SplitAt(k(at)); err != nil {
			t.Fatal(err)
		}
	}
	span := func(prefix string) keys.Span { return keys.Span{Key: k(prefix), EndKey: k(prefix + "~")} }
	deep := func(rows []kvpb.KeyValue) []kvpb.KeyValue {
		out := make([]kvpb.KeyValue, len(rows))
		for i, kv := range rows {
			out[i] = kvpb.KeyValue{Key: kv.Key.Clone(), Value: slices.Clone(kv.Value)}
		}
		return out
	}
	// The a-span as the transaction sees it: a05 rewritten, a15x inserted,
	// a25 deleted.
	var wantA []kvpb.KeyValue
	for i := 0; i < 30; i++ {
		switch i {
		case 5:
			wantA = append(wantA, kvpb.KeyValue{Key: k("a05"), Value: []byte("new")})
		case 25:
			continue
		default:
			wantA = append(wantA, kvpb.KeyValue{Key: k(name("a", i)), Value: []byte(name("va", i))})
		}
		if i == 15 {
			wantA = append(wantA, kvpb.KeyValue{Key: k("a15x"), Value: []byte("ins")})
		}
	}
	equal := func(got, want []kvpb.KeyValue) bool {
		return slices.EqualFunc(got, want, func(a, b kvpb.KeyValue) bool {
			return a.Key.Equal(b.Key) && string(a.Value) == string(b.Value)
		})
	}

	for round := 0; round < 4; round++ {
		// Seed the pool, so every scan below reads into a pooled page: a
		// released response that drew none leaves an empty one.
		for i := 0; i < 16; i++ {
			new(kvpb.BatchResponse).Release()
		}
		tx := coord.begin()
		kept, err := tx.Scan(ctx, span("c"), 0)
		if err != nil {
			t.Fatal(err)
		}
		keptRef := deep(kept)
		if err := tx.Put(ctx, k("a05"), []byte("new")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Put(ctx, k("a15x"), []byte("ins")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Delete(ctx, k("a25")); err != nil {
			t.Fatal(err)
		}
		// MaxKeys cuts the a-scan inside its third range, and the insert
		// pushes the overlaid page past it: the overlay resumes at a stored
		// row's key.
		const limit = 25
		resp, err := tx.Send(ctx,
			kvpb.Request{Method: kvpb.Scan, Key: k("a"), EndKey: k("a~"), MaxKeys: limit},
			kvpb.Request{Method: kvpb.Scan, Key: k("b"), EndKey: k("b~")})
		if err != nil {
			t.Fatal(err)
		}
		a, b := resp.Responses[0], resp.Responses[1]
		gotA, gotB := deep(a.Rows), deep(b.Rows)
		if !equal(gotA, wantA[:limit]) {
			t.Fatalf("round %d: a-scan = %d rows, want the model's first %d", round, len(gotA), limit)
		}
		if len(gotB) != 30 || !gotB[0].Key.Equal(k("b00")) || !gotB[29].Key.Equal(k("b29")) {
			t.Fatalf("round %d: b-scan = %d rows", round, len(gotB))
		}
		if a.ResumeSpan == nil || b.ResumeSpan != nil {
			t.Fatalf("round %d: resume spans %v, %v; want one on the a-scan only", round, a.ResumeSpan, b.ResumeSpan)
		}
		resume := a.ResumeSpan.Key.Clone()
		if !resume.Equal(wantA[limit].Key) {
			t.Fatalf("round %d: a-scan resumes at %q, want %q", round, resume, wantA[limit].Key)
		}

		resp.Release()
		again, err := tx.Send(ctx, kvpb.Request{Method: kvpb.Scan, Key: k("b10"), EndKey: k("c")})
		if err != nil {
			t.Fatal(err)
		}
		if rows := again.Responses[0].Rows; len(rows) != 20 || !rows[0].Key.Equal(k("b10")) || !rows[19].Key.Equal(k("b29")) {
			t.Fatalf("round %d: second scan = %d rows", round, len(rows))
		}
		again.Release()
		scribble(t)
		if !a.ResumeSpan.Key.Equal(resume) {
			t.Fatalf("round %d: a-scan's resume key changed to %q after release, was %q", round, a.ResumeSpan.Key, resume)
		}
		if !equal(kept, keptRef) {
			t.Fatalf("round %d: a Txn.Scan result changed after another response was released", round)
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		// Put the a-span back for the next round.
		reset := coord.begin()
		if err := reset.Put(ctx, k("a05"), []byte("va05")); err != nil {
			t.Fatal(err)
		}
		if err := reset.Delete(ctx, k("a15x")); err != nil {
			t.Fatal(err)
		}
		if err := reset.Put(ctx, k("a25"), []byte("va25")); err != nil {
			t.Fatal(err)
		}
		if err := reset.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
}
