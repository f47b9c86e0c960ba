// Package kvpb defines the KV API spoken across the SQL/KV boundary (§3.1 of
// the paper): batched GET/PUT/DELETE/SCAN requests, responses with resumption
// markers (§5.1.4), structured routing errors, and the request metadata
// (tenant identity, priority) that the authorization and admission layers
// consume.
package kvpb

import (
	"fmt"

	"crdbserverless/internal/hlc"
	"crdbserverless/internal/keys"
)

// Method enumerates the KV operations.
type Method int

// The supported KV methods.
const (
	Get Method = iota
	Put
	Delete
	Scan
	DeleteRange
	// ResolveIntent finalizes a transaction's provisional write on a key.
	// Issued by the transaction coordinator at commit/abort time.
	ResolveIntent
	// ResolveIntentRange finalizes a transaction's provisional writes over a
	// key span. The coordinator issues it for DeleteRange footprints, whose
	// exact keys it may never have learned (the batch can fail after partial
	// application); the leaseholder enumerates the matching intents itself.
	ResolveIntentRange
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Get:
		return "Get"
	case Put:
		return "Put"
	case Delete:
		return "Delete"
	case Scan:
		return "Scan"
	case DeleteRange:
		return "DeleteRange"
	case ResolveIntent:
		return "ResolveIntent"
	case ResolveIntentRange:
		return "ResolveIntentRange"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// IsWrite reports whether the method mutates the keyspace.
func (m Method) IsWrite() bool {
	return m == Put || m == Delete || m == DeleteRange ||
		m == ResolveIntent || m == ResolveIntentRange
}

// Priority orders work within a tenant's admission queue.
type Priority int

// Priorities, lowest to highest.
const (
	PriorityLow    Priority = -10
	PriorityNormal Priority = 0
	PriorityHigh   Priority = 10
)

// Request is a single KV operation.
type Request struct {
	Method Method
	Key    keys.Key
	// EndKey bounds Scan and DeleteRange requests; unused otherwise.
	EndKey keys.Key
	// Value is the payload for Put.
	Value []byte
	// MaxKeys bounds the number of rows a Scan may return before setting a
	// resume span. Zero means unlimited.
	MaxKeys int64
	// ResolveTxnID, ResolveCommit, and ResolveTs parameterize ResolveIntent
	// requests: which transaction's intent to finalize, whether it commits,
	// and at what timestamp.
	ResolveTxnID  uint64
	ResolveCommit bool
	ResolveTs     hlc.Timestamp
	// Filter, when non-nil on a Scan, is a push-down spec the KV node
	// hands to its registered scan evaluator (kvserver.ScanEvaluator) — the
	// push-down of the paper's §8: rows failing a filter, or folded into
	// partial aggregates, never cross the process boundary. The SQL layer
	// that writes the bytes owns their format; KV does not read them.
	Filter []byte
}

// Span returns the span the request touches.
func (r Request) Span() keys.Span {
	if len(r.EndKey) == 0 {
		return keys.Span{Key: r.Key}
	}
	return keys.Span{Key: r.Key, EndKey: r.EndKey}
}

// KeyValue is one row of a scan response. A scan's keys may live in a pooled
// Page, valid until the response owning it is released.
type KeyValue struct {
	Key   keys.Key
	Value []byte
}

// Response is the result of a single Request.
type Response struct {
	// Value is the result of a Get (nil if the key is absent).
	Value []byte
	// Exists reports whether a Get found the key.
	Exists bool
	// Rows holds Scan results.
	Rows []KeyValue
	// ResumeSpan, when non-nil, is the portion of the request's span that
	// was not processed because a limit was reached (the resumption marker
	// of §5.1.4); the caller re-issues the request with this span.
	ResumeSpan *keys.Span
	// ScannedBytes is the volume the KV node read to serve a Scan — it can
	// exceed the returned bytes when a pushed-down filter dropped rows, and
	// it is what the scan's CPU cost is charged on.
	ScannedBytes int64
}

// TxnMeta carries the transaction identity a batch executes under.
type TxnMeta struct {
	ID       uint64
	Ts       hlc.Timestamp
	Priority Priority
}

// BatchRequest groups requests that execute at one timestamp for one tenant.
// Every KV API call across the SQL/KV boundary is a BatchRequest; the tenant
// identity is validated by the authorizer (§3.2.3) against the client's
// certificate before the batch reaches a replica.
type BatchRequest struct {
	// Tenant is the tenant whose keyspace this batch addresses.
	Tenant keys.TenantID
	// Timestamp is the read/write timestamp for non-transactional batches.
	Timestamp hlc.Timestamp
	// Txn, when non-nil, makes the batch part of a transaction.
	Txn *TxnMeta
	// TxnWrites, when positive, marks the batch as its transaction's commit
	// batch and says how many point writes the whole transaction makes. A
	// range that receives that many commits them in one replicated command
	// and answers Committed; a range that receives fewer (the batch was
	// split, or clipped by a stale descriptor on the way) writes intents for
	// the coordinator to resolve.
	TxnWrites int
	Requests  []Request
}

// ReadTs returns the timestamp reads in the batch observe.
func (b *BatchRequest) ReadTs() hlc.Timestamp {
	if b.Txn != nil {
		return b.Txn.Ts
	}
	return b.Timestamp
}

// IsReadOnly reports whether no request in the batch writes.
func (b *BatchRequest) IsReadOnly() bool {
	for _, r := range b.Requests {
		if r.Method.IsWrite() {
			return false
		}
	}
	return true
}

// WriteBytes returns the total payload bytes of write requests, an input to
// both admission control's write token bucket and the estimated-CPU model.
func (b *BatchRequest) WriteBytes() int64 {
	var n int64
	for _, r := range b.Requests {
		if r.Method.IsWrite() {
			n += int64(len(r.Key) + len(r.Value))
		}
	}
	return n
}

// BatchResponse carries the per-request responses of a batch.
type BatchResponse struct {
	Timestamp hlc.Timestamp
	Responses []Response
	// Committed reports that one range took a commit batch whole (see
	// BatchRequest.TxnWrites) and wrote it as committed versions: the
	// transaction is finished and left no intents to resolve.
	Committed bool
	// Ranges is the number of range visits that served the batch, filled in
	// by the DistSender.
	Ranges int
	// pages are the pooled pages the Rows of Responses point into (see
	// Page). They hang off the batch, not each Response: a pointer there
	// would grow every Response, and with it every batch's response slice.
	pages *Page
}

// NewBatchResponse returns an empty response at ts with room for n
// responses. For up to 16 responses, which covers a point read and a
// transaction's commit batch, it is one allocation: the response with an
// array of exactly n beside it. A larger batch's array is a second one.
func NewBatchResponse(ts hlc.Timestamp, n int) *BatchResponse {
	switch n {
	case 1:
		return withRoom(ts, func(a *[1]Response) []Response { return a[:0] })
	case 2:
		return withRoom(ts, func(a *[2]Response) []Response { return a[:0] })
	case 3:
		return withRoom(ts, func(a *[3]Response) []Response { return a[:0] })
	case 4:
		return withRoom(ts, func(a *[4]Response) []Response { return a[:0] })
	case 5:
		return withRoom(ts, func(a *[5]Response) []Response { return a[:0] })
	case 6:
		return withRoom(ts, func(a *[6]Response) []Response { return a[:0] })
	case 7:
		return withRoom(ts, func(a *[7]Response) []Response { return a[:0] })
	case 8:
		return withRoom(ts, func(a *[8]Response) []Response { return a[:0] })
	case 9:
		return withRoom(ts, func(a *[9]Response) []Response { return a[:0] })
	case 10:
		return withRoom(ts, func(a *[10]Response) []Response { return a[:0] })
	case 11:
		return withRoom(ts, func(a *[11]Response) []Response { return a[:0] })
	case 12:
		return withRoom(ts, func(a *[12]Response) []Response { return a[:0] })
	case 13:
		return withRoom(ts, func(a *[13]Response) []Response { return a[:0] })
	case 14:
		return withRoom(ts, func(a *[14]Response) []Response { return a[:0] })
	case 15:
		return withRoom(ts, func(a *[15]Response) []Response { return a[:0] })
	case 16:
		return withRoom(ts, func(a *[16]Response) []Response { return a[:0] })
	}
	return &BatchResponse{Timestamp: ts, Responses: make([]Response, 0, n)}
}

// withRoom allocates a response together with the array A its Responses
// start empty in; room slices the array.
func withRoom[A any](ts hlc.Timestamp, room func(*A) []Response) *BatchResponse {
	b := &struct {
		BatchResponse
		room A
	}{}
	b.Timestamp, b.Responses = ts, room(&b.room)
	return &b.BatchResponse
}

// ReadBytes returns the total bytes returned by reads in the response: what
// crosses the SQL/KV boundary.
func (b *BatchResponse) ReadBytes() int64 {
	var n int64
	for i := range b.Responses {
		r := &b.Responses[i]
		n += int64(len(r.Value)) + r.rowBytes()
	}
	return n
}

// ScannedBytes returns the bytes the KV node read to serve the response's
// reads. It is ReadBytes, except that a scan counts what it read
// (Response.ScannedBytes) rather than what it returned, which is less when a
// pushed-down filter dropped rows or a pushed-down aggregation folded them.
// Reads are priced on it, both by the KV node's ground-truth cost and by the
// tenant's estimated-CPU bill (§5.2.1), so push-down never makes a read
// cheaper to bill than the work it made the KV node do.
func (b *BatchResponse) ScannedBytes() int64 {
	var n int64
	for i := range b.Responses {
		r := &b.Responses[i]
		if r.ScannedBytes > int64(len(r.Value)) {
			n += int64(len(r.Value)) + r.ScannedBytes
		} else {
			n += int64(len(r.Value)) + r.rowBytes()
		}
	}
	return n
}

func (r *Response) rowBytes() int64 {
	var n int64
	for _, kv := range r.Rows {
		n += int64(len(kv.Key) + len(kv.Value))
	}
	return n
}
