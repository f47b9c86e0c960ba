package kvpb

import (
	"errors"
	"fmt"

	"crdbserverless/internal/hlc"
	"crdbserverless/internal/keys"
)

// NodeID identifies a KV node in the cluster.
type NodeID int32

// NotLeaseholderError redirects the sender to the replica currently holding
// the range lease.
type NotLeaseholderError struct {
	RangeID     int64
	Leaseholder NodeID
}

// Error implements error.
func (e *NotLeaseholderError) Error() string {
	return fmt.Sprintf("range %d: not leaseholder; try node %d", e.RangeID, e.Leaseholder)
}

// RangeKeyMismatchError indicates the request addressed a range that does not
// contain its key (e.g. after a split); the sender refreshes its range cache
// from the META range and retries.
type RangeKeyMismatchError struct {
	RequestedKey keys.Key
	ActualSpan   keys.Span
}

// Error implements error.
func (e *RangeKeyMismatchError) Error() string {
	return fmt.Sprintf("key %s outside range bounds %s", e.RequestedKey, e.ActualSpan)
}

// WriteIntentError indicates the operation encountered another transaction's
// provisional write.
type WriteIntentError struct {
	Key   keys.Key
	TxnID uint64
}

// Error implements error.
func (e *WriteIntentError) Error() string {
	return fmt.Sprintf("conflicting intent on %s from txn %d", e.Key, e.TxnID)
}

// WriteTooOldError indicates a write at a timestamp below an existing
// committed version; the transaction must retry at ActualTs or higher.
type WriteTooOldError struct {
	Key      keys.Key
	ActualTs hlc.Timestamp
}

// Error implements error.
func (e *WriteTooOldError) Error() string {
	return fmt.Sprintf("write on %s too old; retry at %s", e.Key, e.ActualTs)
}

// TenantAuthError indicates a request attempted to escape its tenant keyspace
// or presented an identity that does not match the addressed tenant. This is
// the security boundary of §3.2.3.
type TenantAuthError struct {
	Authenticated keys.TenantID
	Requested     keys.TenantID
	Key           keys.Key
}

// Error implements error.
func (e *TenantAuthError) Error() string {
	return fmt.Sprintf("tenant %s is not authorized for key %s (requested tenant %s)",
		e.Authenticated, e.Key, e.Requested)
}

// TenantRateLimitedError indicates the tenant's token bucket rejected the
// operation outright (as opposed to smoothly delaying it).
type TenantRateLimitedError struct {
	Tenant keys.TenantID
}

// Error implements error.
func (e *TenantRateLimitedError) Error() string {
	return fmt.Sprintf("%s exceeded its resource quota", e.Tenant)
}

// RangeNotFoundError indicates the addressed range does not exist on the
// target node.
type RangeNotFoundError struct {
	RangeID int64
}

// Error implements error.
func (e *RangeNotFoundError) Error() string {
	return fmt.Sprintf("range %d not found on node", e.RangeID)
}

// TransactionAbortedError indicates the transaction was aborted by a
// conflicting transaction or the system and must restart.
type TransactionAbortedError struct {
	TxnID uint64
}

// Error implements error.
func (e *TransactionAbortedError) Error() string {
	return fmt.Sprintf("txn %d aborted", e.TxnID)
}

// AmbiguousCommitError reports a commit whose outcome the coordinator could
// not learn: a commit batch failed in a way that may follow application (a
// lost response) and retrying it did not settle the question. The
// transaction may or may not have committed, so the error is not retriable —
// running the transaction again could apply it twice.
type AmbiguousCommitError struct {
	TxnID uint64
	Cause error
}

// Error implements error.
func (e *AmbiguousCommitError) Error() string {
	return fmt.Sprintf("txn %d: result of commit is ambiguous: %v", e.TxnID, e.Cause)
}

// Unwrap returns the error the last commit attempt failed with.
func (e *AmbiguousCommitError) Unwrap() error { return e.Cause }

// IsConflict reports whether err is a write conflict: another transaction's
// intent on the key, or a committed version or read at or above the write's
// timestamp.
func IsConflict(err error) bool {
	var (
		wie *WriteIntentError
		wto *WriteTooOldError
	)
	return errors.As(err, &wie) || errors.As(err, &wto)
}

// retriableFault is implemented by injected fault errors
// (internal/faultinject) so retry loops can treat them as transient
// transport failures without kvpb importing the injector.
type retriableFault interface{ RetriableFault() bool }

// IsRetriable reports whether the error indicates the operation may succeed
// if retried (possibly after refreshing caches or at a new timestamp).
func IsRetriable(err error) bool {
	var ace *AmbiguousCommitError
	if errors.As(err, &ace) {
		return false
	}
	var rf retriableFault
	if errors.As(err, &rf) {
		return rf.RetriableFault()
	}
	var (
		nle *NotLeaseholderError
		rkm *RangeKeyMismatchError
		wie *WriteIntentError
		wto *WriteTooOldError
		ta  *TransactionAbortedError
	)
	return errors.As(err, &nle) || errors.As(err, &rkm) ||
		errors.As(err, &wie) || errors.As(err, &wto) || errors.As(err, &ta)
}
