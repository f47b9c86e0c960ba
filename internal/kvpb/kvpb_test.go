package kvpb

import (
	"errors"
	"fmt"
	"testing"

	"crdbserverless/internal/hlc"
	"crdbserverless/internal/keys"
)

func TestMethodString(t *testing.T) {
	for m, want := range map[Method]string{
		Get: "Get", Put: "Put", Delete: "Delete", Scan: "Scan",
		DeleteRange: "DeleteRange", Method(99): "Method(99)",
	} {
		if got := m.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", m, got, want)
		}
	}
}

func TestMethodIsWrite(t *testing.T) {
	if Get.IsWrite() || Scan.IsWrite() {
		t.Fatal("reads flagged as writes")
	}
	if !Put.IsWrite() || !Delete.IsWrite() || !DeleteRange.IsWrite() {
		t.Fatal("writes not flagged")
	}
}

func TestRequestSpan(t *testing.T) {
	p := Request{Method: Get, Key: keys.Key("a")}
	if !p.Span().IsPoint() {
		t.Fatal("point request should yield point span")
	}
	s := Request{Method: Scan, Key: keys.Key("a"), EndKey: keys.Key("z")}
	if s.Span().IsPoint() || !s.Span().ContainsKey(keys.Key("m")) {
		t.Fatal("scan span broken")
	}
}

func TestBatchReadTs(t *testing.T) {
	ts1 := hlc.Timestamp{WallTime: 10}
	ts2 := hlc.Timestamp{WallTime: 20}
	b := BatchRequest{Timestamp: ts1}
	if !b.ReadTs().Equal(ts1) {
		t.Fatal("non-txn batch should read at batch ts")
	}
	b.Txn = &TxnMeta{ID: 1, Ts: ts2}
	if !b.ReadTs().Equal(ts2) {
		t.Fatal("txn batch should read at txn ts")
	}
}

func TestBatchIsReadOnlyAndWriteBytes(t *testing.T) {
	b := BatchRequest{Requests: []Request{
		{Method: Get, Key: keys.Key("a")},
		{Method: Scan, Key: keys.Key("a"), EndKey: keys.Key("b")},
	}}
	if !b.IsReadOnly() {
		t.Fatal("read batch reported as writing")
	}
	if b.WriteBytes() != 0 {
		t.Fatal("read batch has write bytes")
	}
	b.Requests = append(b.Requests, Request{Method: Put, Key: keys.Key("kk"), Value: []byte("vvv")})
	if b.IsReadOnly() {
		t.Fatal("write batch reported read-only")
	}
	if got := b.WriteBytes(); got != 5 {
		t.Fatalf("WriteBytes = %d, want 5", got)
	}
}

func TestBatchResponseReadBytes(t *testing.T) {
	r := BatchResponse{Responses: []Response{
		{Method: Get, Value: []byte("1234")},
		{Method: Scan, Rows: []KeyValue{{Key: keys.Key("k"), Value: []byte("vv")}}},
	}}
	if got := r.ReadBytes(); got != 4+1+2 {
		t.Fatalf("ReadBytes = %d, want 7", got)
	}
}

func TestErrorsFormatAndRetriable(t *testing.T) {
	errs := []error{
		&NotLeaseholderError{RangeID: 1, Leaseholder: 3},
		&RangeKeyMismatchError{RequestedKey: keys.Key("a"), ActualSpan: keys.Span{Key: keys.Key("b"), EndKey: keys.Key("c")}},
		&WriteIntentError{Key: keys.Key("k"), TxnID: 9},
		&WriteTooOldError{Key: keys.Key("k"), ActualTs: hlc.Timestamp{WallTime: 5}},
		&TransactionAbortedError{TxnID: 2},
	}
	for _, err := range errs {
		if err.Error() == "" {
			t.Fatalf("%T has empty message", err)
		}
		if !IsRetriable(err) {
			t.Fatalf("%T should be retriable", err)
		}
		if !IsRetriable(fmt.Errorf("wrapped: %w", err)) {
			t.Fatalf("wrapped %T should be retriable", err)
		}
	}
	notRetriable := []error{
		&TenantAuthError{Authenticated: 2, Requested: 3, Key: keys.Key("k")},
		&TenantRateLimitedError{Tenant: 2},
		&RangeNotFoundError{RangeID: 4},
		errors.New("generic"),
		// Whatever made the commit ambiguous, running the transaction again
		// could apply it twice.
		&AmbiguousCommitError{TxnID: 9, Cause: &WriteTooOldError{Key: keys.Key("k")}},
	}
	for _, err := range notRetriable {
		if err.Error() == "" {
			t.Fatalf("%T has empty message", err)
		}
		if IsRetriable(err) {
			t.Fatalf("%T should not be retriable", err)
		}
	}
}

func TestIsConflictAndAmbiguousCause(t *testing.T) {
	wto := &WriteTooOldError{Key: keys.Key("k")}
	for _, err := range []error{wto, &WriteIntentError{Key: keys.Key("k"), TxnID: 7}, fmt.Errorf("wrapped: %w", wto)} {
		if !IsConflict(err) {
			t.Fatalf("%v should be a conflict", err)
		}
	}
	if IsConflict(&NotLeaseholderError{RangeID: 1}) || IsConflict(nil) {
		t.Fatal("routing errors and nil are not conflicts")
	}
	var got *WriteTooOldError
	if err := error(&AmbiguousCommitError{TxnID: 9, Cause: wto}); !errors.As(err, &got) || got != wto {
		t.Fatal("AmbiguousCommitError does not unwrap to its cause")
	}
}

func TestPriorityOrdering(t *testing.T) {
	if !(PriorityLow < PriorityNormal && PriorityNormal < PriorityHigh) {
		t.Fatal("priority constants misordered")
	}
}
