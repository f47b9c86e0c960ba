// Package mvcc layers multi-version concurrency control over the LSM engine:
// versioned keys ordered newest-first, provisional write intents, snapshot
// reads at a timestamp, and intent resolution. The transaction layer
// (internal/txn) and the replica state machine (internal/kvserver) are built
// on these primitives.
package mvcc

import (
	"errors"
	"fmt"

	"crdbserverless/internal/hlc"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/lsm"
)

// EncodeKey builds the storage key for (user key, timestamp). For a single
// user key, versions sort newest-first, so the first storage entry for a key
// is its latest version.
func EncodeKey(user keys.Key, ts hlc.Timestamp) []byte {
	k := keys.EncodeBytes(nil, user)
	k = keys.EncodeUint64(k, ^uint64(ts.WallTime))
	k = keys.EncodeUint64(k, ^uint64(uint32(ts.Logical)))
	return k
}

// keyPrefix returns the storage prefix covering every version of user.
func keyPrefix(user keys.Key) []byte {
	return keys.EncodeBytes(nil, user)
}

// DecodeKey splits a storage key into its user key and timestamp.
func DecodeKey(storage []byte) (keys.Key, hlc.Timestamp, error) {
	rest, user, err := keys.DecodeBytes(storage)
	if err != nil {
		return nil, hlc.Timestamp{}, err
	}
	rest, wall, err := keys.DecodeUint64(rest)
	if err != nil {
		return nil, hlc.Timestamp{}, err
	}
	rest, logical, err := keys.DecodeUint64(rest)
	if err != nil {
		return nil, hlc.Timestamp{}, err
	}
	if len(rest) != 0 {
		return nil, hlc.Timestamp{}, errors.New("mvcc: trailing bytes in storage key")
	}
	return user, hlc.Timestamp{
		WallTime: int64(^wall),
		Logical:  int32(^uint32(logical)),
	}, nil
}

// Version is one decoded version of a key.
type Version struct {
	Ts        hlc.Timestamp
	TxnID     uint64 // nonzero marks an unresolved intent
	Tombstone bool
	Data      []byte
}

// IsIntent reports whether the version is a provisional transactional write.
func (v Version) IsIntent() bool { return v.TxnID != 0 }

const (
	flagTombstone = 1 << 0
)

// encodeValue serializes a version's value portion (timestamp lives in the
// key).
func encodeValue(v Version) []byte {
	out := make([]byte, 0, 9+len(v.Data))
	var flags byte
	if v.Tombstone {
		flags |= flagTombstone
	}
	out = append(out, flags)
	out = keys.EncodeUint64(out, v.TxnID)
	return append(out, v.Data...)
}

func decodeValue(b []byte) (Version, error) {
	if len(b) < 9 {
		return Version{}, fmt.Errorf("mvcc: short value (%d bytes)", len(b))
	}
	var v Version
	v.Tombstone = b[0]&flagTombstone != 0
	_, txnID, err := keys.DecodeUint64(keys.Key(b[1:9]))
	if err != nil {
		return Version{}, err
	}
	v.TxnID = txnID
	if len(b) > 9 {
		v.Data = b[9:]
	}
	return v, nil
}

// Put writes value for key at ts. If txnID is nonzero the write is an intent
// owned by that transaction. Put returns WriteIntentError when another
// transaction holds an intent on the key, and WriteTooOldError when a
// committed version exists at or above ts.
func Put(e *lsm.Engine, key keys.Key, ts hlc.Timestamp, txnID uint64, value []byte) error {
	return putVersion(e, key, Version{Ts: ts, TxnID: txnID, Data: value}, false)
}

// Delete writes a deletion tombstone version for key at ts, with the same
// conflict rules as Put.
func Delete(e *lsm.Engine, key keys.Key, ts hlc.Timestamp, txnID uint64) error {
	return putVersion(e, key, Version{Ts: ts, TxnID: txnID, Tombstone: true}, false)
}

// ApplyPut is the replication-side Put: it skips conflict checking, which
// already ran on the leaseholder during evaluation. Replicas applying a
// committed command — including a recovered store replaying raft entries over
// partially surviving state — must not re-check, because a half-applied
// command's own versions would read as conflicts and make deterministic
// application fail partway through. It is idempotent: re-applying writes the
// identical version at the identical timestamp.
func ApplyPut(e *lsm.Engine, key keys.Key, ts hlc.Timestamp, txnID uint64, value []byte) error {
	return putVersion(e, key, Version{Ts: ts, TxnID: txnID, Data: value}, true)
}

// ApplyDelete is the replication-side Delete (see ApplyPut).
func ApplyDelete(e *lsm.Engine, key keys.Key, ts hlc.Timestamp, txnID uint64) error {
	return putVersion(e, key, Version{Ts: ts, TxnID: txnID, Tombstone: true}, true)
}

// CheckWriteConflict reports the conflict a write at (ts, txnID) on key would
// encounter: WriteIntentError for another transaction's intent, or
// WriteTooOldError for a committed version at or above ts. The KV layer runs
// this during evaluation, before replicating a command, so that command
// application cannot fail partway through a batch.
func CheckWriteConflict(e *lsm.Engine, key keys.Key, ts hlc.Timestamp, txnID uint64) error {
	newest, ok, err := newestVersion(e, key)
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	if newest.IsIntent() {
		if newest.TxnID != txnID {
			return &kvpb.WriteIntentError{Key: key.Clone(), TxnID: newest.TxnID}
		}
		return nil
	}
	if !newest.Ts.Less(ts) {
		return &kvpb.WriteTooOldError{Key: key.Clone(), ActualTs: newest.Ts.Next()}
	}
	return nil
}

// CommittedVersionAt returns the committed version of key written at exactly
// ts, if there is one. A replica asks this to recognise a commit batch it has
// applied before (kvserver.evaluateBatch).
func CommittedVersionAt(e *lsm.Engine, key keys.Key, ts hlc.Timestamp) (Version, bool, error) {
	raw, ok, err := e.Get(EncodeKey(key, ts))
	if err != nil || !ok {
		return Version{}, false, err
	}
	v, err := decodeValue(raw)
	if err != nil || v.IsIntent() {
		return Version{}, false, err
	}
	v.Ts = ts
	return v, true, nil
}

func putVersion(e *lsm.Engine, key keys.Key, v Version, replay bool) error {
	if !replay {
		if err := CheckWriteConflict(e, key, v.Ts, v.TxnID); err != nil {
			return err
		}
	}
	if !v.IsIntent() {
		// Only an intent can have an earlier intent of its own to replace.
		return e.Set(EncodeKey(key, v.Ts), encodeValue(v))
	}
	newest, ok, err := newestVersion(e, key)
	if err != nil {
		return err
	}
	if ok && newest.IsIntent() && newest.TxnID == v.TxnID {
		// Same transaction rewriting its intent: replace the old provisional
		// version. Tombstone and replacement go through one engine batch (one
		// WAL record) so a crash can never surface both versions — or neither.
		return e.ApplyBatch([]lsm.Entry{
			{Key: EncodeKey(key, newest.Ts), Tombstone: true},
			{Key: EncodeKey(key, v.Ts), Value: encodeValue(v)},
		})
	}
	return e.Set(EncodeKey(key, v.Ts), encodeValue(v))
}

// newestVersion returns the latest version of key, decoded.
func newestVersion(e *lsm.Engine, key keys.Key) (Version, bool, error) {
	prefix := keyPrefix(key)
	it := e.NewIter(prefix, keys.Key(prefix).PrefixEnd())
	if !it.Valid() {
		return Version{}, false, nil
	}
	user, ts, err := DecodeKey(it.Key())
	if err != nil {
		return Version{}, false, err
	}
	if !user.Equal(key) {
		return Version{}, false, nil
	}
	v, err := decodeValue(it.Value())
	if err != nil {
		return Version{}, false, err
	}
	v.Ts = ts
	return v, true, nil
}

// Get returns the value of key visible at readTs to transaction txnID (0 for
// non-transactional reads). A visible intent from another transaction yields
// WriteIntentError. A tombstone or absent key reads as not found.
func Get(e *lsm.Engine, key keys.Key, readTs hlc.Timestamp, txnID uint64) ([]byte, bool, error) {
	prefix := keyPrefix(key)
	it := e.NewIter(prefix, keys.Key(prefix).PrefixEnd())
	for ; it.Valid(); it.Next() {
		user, ts, err := DecodeKey(it.Key())
		if err != nil {
			return nil, false, err
		}
		if !user.Equal(key) {
			break
		}
		v, err := decodeValue(it.Value())
		if err != nil {
			return nil, false, err
		}
		v.Ts = ts
		visible, err := visibleVersion(v, key, readTs, txnID)
		if err != nil {
			return nil, false, err
		}
		if !visible {
			continue
		}
		if v.Tombstone {
			return nil, false, nil
		}
		return v.Data, true, nil
	}
	return nil, false, nil
}

// visibleVersion applies the snapshot visibility rules and surfaces intent
// conflicts.
func visibleVersion(v Version, key keys.Key, readTs hlc.Timestamp, txnID uint64) (bool, error) {
	if v.IsIntent() && v.TxnID == txnID {
		// A transaction always reads its own provisional writes.
		return true, nil
	}
	if readTs.Less(v.Ts) {
		// Version (or foreign intent) above the read timestamp: skip and
		// read below it.
		return false, nil
	}
	if v.IsIntent() {
		return false, &kvpb.WriteIntentError{Key: key.Clone(), TxnID: v.TxnID}
	}
	return true, nil
}

// ScanResult is the outcome of a Scan.
type ScanResult struct {
	Rows []kvpb.KeyValue
	// Resume is the remainder of the span when maxKeys was reached.
	Resume *keys.Span
}

// Scan returns up to maxKeys live rows in span visible at readTs to txnID.
// maxKeys <= 0 means unlimited.
func Scan(e *lsm.Engine, span keys.Span, readTs hlc.Timestamp, txnID uint64, maxKeys int64) (ScanResult, error) {
	lo := keyPrefix(span.Key)
	var hi []byte
	if span.IsPoint() {
		hi = keys.Key(lo).PrefixEnd()
	} else {
		hi = keyPrefix(span.EndKey)
	}
	var res ScanResult
	it := e.NewIter(lo, hi)
	var curKey keys.Key
	decided := false // whether visibility for curKey has been settled
	for ; it.Valid(); it.Next() {
		user, ts, err := DecodeKey(it.Key())
		if err != nil {
			return ScanResult{}, err
		}
		if !user.Equal(curKey) {
			if maxKeys > 0 && int64(len(res.Rows)) >= maxKeys {
				rs := keys.Span{Key: user.Clone(), EndKey: span.EndKey}
				res.Resume = &rs
				return res, nil
			}
			curKey = user.Clone()
			decided = false
		}
		if decided {
			continue
		}
		v, err := decodeValue(it.Value())
		if err != nil {
			return ScanResult{}, err
		}
		v.Ts = ts
		visible, err := visibleVersion(v, curKey, readTs, txnID)
		if err != nil {
			return ScanResult{}, err
		}
		if !visible {
			continue
		}
		decided = true
		if !v.Tombstone {
			res.Rows = append(res.Rows, kvpb.KeyValue{Key: curKey, Value: v.Data})
		}
	}
	return res, nil
}

// ResolveIntent finalizes txnID's intent on key. When commit is true the
// provisional version is rewritten as committed at commitTs; otherwise it is
// removed. Resolving a key with no matching intent is a no-op (resolution
// must be idempotent: the txn layer retries it). The intent removal and the
// committed rewrite go through one engine batch — one WAL record — so a crash
// mid-resolution can never lose the committed version while having dropped
// the intent (or leave both visible).
func ResolveIntent(e *lsm.Engine, key keys.Key, txnID uint64, commit bool, commitTs hlc.Timestamp) error {
	v, ok, err := newestVersion(e, key)
	if err != nil {
		return err
	}
	if !ok || !v.IsIntent() || v.TxnID != txnID {
		return nil
	}
	if !commit {
		return e.Delete(EncodeKey(key, v.Ts))
	}
	committed := Version{Ts: commitTs, Tombstone: v.Tombstone, Data: v.Data}
	return e.ApplyBatch([]lsm.Entry{
		{Key: EncodeKey(key, v.Ts), Tombstone: true},
		{Key: EncodeKey(key, commitTs), Value: encodeValue(committed)},
	})
}

// GCOldVersions removes all but the newest committed version of each key in
// span, retaining any version newer than keepAfter. It returns the number of
// versions removed. This is the storage reclamation path (MVCC GC).
func GCOldVersions(e *lsm.Engine, span keys.Span, keepAfter hlc.Timestamp) (int, error) {
	lo := keyPrefix(span.Key)
	var hi []byte
	if span.IsPoint() {
		hi = keys.Key(lo).PrefixEnd()
	} else {
		hi = keyPrefix(span.EndKey)
	}
	var toDelete [][]byte
	var curKey keys.Key
	kept := false
	for it := e.NewIter(lo, hi); it.Valid(); it.Next() {
		user, ts, err := DecodeKey(it.Key())
		if err != nil {
			return 0, err
		}
		if !user.Equal(curKey) {
			curKey = user.Clone()
			kept = false
		}
		v, err := decodeValue(it.Value())
		if err != nil {
			return 0, err
		}
		if v.IsIntent() || keepAfter.Less(ts) {
			kept = true // intents and recent versions always survive
			continue
		}
		if !kept {
			kept = true // newest committed version survives
			continue
		}
		toDelete = append(toDelete, append([]byte(nil), it.Key()...))
	}
	for _, k := range toDelete {
		if err := e.Delete(k); err != nil {
			return 0, err
		}
	}
	return len(toDelete), nil
}

// IntentKeys returns the user keys in span holding an unresolved intent, in
// key order. A nonzero txnID restricts the result to that transaction's
// intents. An intent is always a key's newest version (committed writes
// cannot land above one), so only the first storage entry per user key needs
// decoding. ResolveIntentRange evaluation and the chaos harness's
// orphaned-intent invariant are built on this.
func IntentKeys(e *lsm.Engine, span keys.Span, txnID uint64) ([]keys.Key, error) {
	lo, hi := EngineSpan(span)
	var out []keys.Key
	var curKey keys.Key
	for it := e.NewIter(lo, hi); it.Valid(); it.Next() {
		user, _, err := DecodeKey(it.Key())
		if err != nil {
			return nil, err
		}
		if user.Equal(curKey) {
			continue
		}
		curKey = user.Clone()
		v, err := decodeValue(it.Value())
		if err != nil {
			return nil, err
		}
		if v.IsIntent() && (txnID == 0 || v.TxnID == txnID) {
			out = append(out, curKey)
		}
	}
	return out, nil
}

// EngineSpan translates a user-key span into the raw storage-key bounds that
// cover every MVCC version (and intent) of keys in the span. Replica
// rebalancing copies engine data with these bounds.
func EngineSpan(span keys.Span) (lo, hi []byte) {
	lo = keyPrefix(span.Key)
	if span.IsPoint() {
		hi = keys.Key(lo).PrefixEnd()
	} else {
		hi = keyPrefix(span.EndKey)
	}
	return lo, hi
}
