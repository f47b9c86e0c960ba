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
	// Filter, when non-nil on a Scan, is an encoded rowfilter.Filter the KV
	// node evaluates before returning rows — the row-filtering push-down of
	// the paper's §8: rows failing the predicate never cross the process
	// boundary.
	Filter []byte
}

// Span returns the span the request touches.
func (r Request) Span() keys.Span {
	if len(r.EndKey) == 0 {
		return keys.Span{Key: r.Key}
	}
	return keys.Span{Key: r.Key, EndKey: r.EndKey}
}

// KeyValue is one row of a scan response.
type KeyValue struct {
	Key   keys.Key
	Value []byte
}

// Response is the result of a single Request.
type Response struct {
	Method Method
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
	// Priority applies to admission queueing when Txn is nil.
	Priority Priority
	// FollowerRead permits a read-only batch to be served by any replica at
	// a (possibly slightly stale) timestamp instead of the leaseholder
	// (§3.2.5: META-range reads and global-table reads use this).
	FollowerRead bool
	// Colocated marks the batch as issued by a SQL engine running in the
	// same process as the KV node (the traditional deployment of §6.1):
	// responses skip the cross-process marshaling cost.
	Colocated bool
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
}

// ReadBytes returns the total bytes returned by reads in the response, an
// input to the estimated-CPU model (§5.2.1).
func (b *BatchResponse) ReadBytes() int64 {
	var n int64
	for i := range b.Responses {
		r := &b.Responses[i]
		n += int64(len(r.Value))
		for _, kv := range r.Rows {
			n += int64(len(kv.Key) + len(kv.Value))
		}
	}
	return n
}
