// Package mvcc layers multi-version concurrency control over the LSM engine:
// versioned keys ordered newest-first, provisional write intents, snapshot
// reads at a timestamp, and intent resolution. The transaction layer
// (internal/txn) and the replica state machine (internal/kvserver) are built
// on these primitives.
package mvcc

import (
	"bytes"
	"encoding/binary"
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
	k := keys.EncodeBytes(make([]byte, 0, keys.EncodedBytesLen(user)+timestampLen), user)
	return appendTimestamp(k, ts)
}

// timestampLen is the length of a storage key's timestamp suffix.
const timestampLen = 16

func appendTimestamp(k []byte, ts hlc.Timestamp) []byte {
	k = binary.BigEndian.AppendUint64(k, ^uint64(ts.WallTime))
	return binary.BigEndian.AppendUint64(k, ^uint64(uint32(ts.Logical)))
}

// splitKey splits a storage key into the encoded user-key prefix and the
// timestamp, without decoding the user key. The prefix ends in a terminator,
// so prefixes are prefix-free: two storage keys belong to the same user key
// exactly when their prefixes are byte-equal.
func splitKey(storage []byte) ([]byte, hlc.Timestamp, error) {
	n := len(storage) - timestampLen
	if n < 0 {
		return nil, hlc.Timestamp{}, fmt.Errorf("mvcc: storage key of %d bytes has no timestamp", len(storage))
	}
	return storage[:n], hlc.Timestamp{
		WallTime: int64(^binary.BigEndian.Uint64(storage[n:])),
		Logical:  int32(^uint32(binary.BigEndian.Uint64(storage[n+8:]))),
	}, nil
}

// keyPrefix returns the storage prefix covering every version of user.
func keyPrefix(user keys.Key) []byte {
	return keys.EncodeBytes(make([]byte, 0, keys.EncodedBytesLen(user)), user)
}

// versionBounds returns the storage bounds [lo, hi) of every version of user,
// in one allocation: hi, then lo with room behind it to append a timestamp
// for a seek. The prefix ends in the terminator byte, so hi is the prefix with
// that byte plus one.
func versionBounds(user keys.Key) (lo, hi []byte) {
	n := keys.EncodedBytesLen(user)
	buf := keys.EncodeBytes(make([]byte, 0, 2*n+timestampLen), user)
	buf = append(buf, buf...)
	buf[n-1]++
	return buf[n : 2*n], buf[:n:n]
}

// DecodeKey splits a storage key into its user key and timestamp.
func DecodeKey(storage []byte) (keys.Key, hlc.Timestamp, error) {
	prefix, ts, err := splitKey(storage)
	if err != nil {
		return nil, hlc.Timestamp{}, err
	}
	user, err := decodeUserKey(prefix)
	if err != nil {
		return nil, hlc.Timestamp{}, err
	}
	return user, ts, nil
}

// decodeUserKey decodes the user key of a storage-key prefix (see splitKey)
// into a fresh slice.
func decodeUserKey(prefix []byte) (keys.Key, error) {
	rest, user, err := keys.DecodeBytes(prefix)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, errors.New("mvcc: trailing bytes in storage key")
	}
	return user, nil
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

// iterValue decodes the value the iterator is positioned on: a version
// without its timestamp, which lives in the key.
func iterValue(it *lsm.Iterator) (Version, error) {
	raw := it.Value()
	if err := it.Error(); err != nil {
		return Version{}, err
	}
	return decodeValue(raw)
}

// iterVersion decodes the version the iterator is positioned on.
func iterVersion(it *lsm.Iterator) (Version, error) {
	v, err := iterValue(it)
	if err != nil {
		return Version{}, err
	}
	_, v.Ts, err = splitKey(it.Key())
	return v, err
}

// newestVersion returns the latest version of key, decoded: one iterator
// position, however long the key's history.
func newestVersion(e *lsm.Engine, key keys.Key) (Version, bool, error) {
	it := e.NewIter(versionBounds(key))
	if !it.Valid() {
		return Version{}, false, it.Error()
	}
	v, err := iterVersion(it)
	return v, err == nil, err
}

// Get returns the value of key visible at readTs to transaction txnID (0 for
// non-transactional reads). A visible intent from another transaction yields
// WriteIntentError. A tombstone or absent key reads as not found.
//
// It costs two iterator positions at most. An intent is always a key's newest
// version, and a transaction reads its own intent whatever its timestamp, so
// the newest version is looked at first: it is visible, or a conflict, or
// above readTs — and then everything down to readTs is committed history that
// one seek to key@readTs passes over.
func Get(e *lsm.Engine, key keys.Key, readTs hlc.Timestamp, txnID uint64) ([]byte, bool, error) {
	lo, hi := versionBounds(key)
	it := e.NewIter(lo, hi)
	for first := true; it.Valid(); first = false {
		v, err := iterVersion(it)
		if err != nil {
			return nil, false, err
		}
		visible, conflict := visibleVersion(v, readTs, txnID)
		if conflict {
			return nil, false, &kvpb.WriteIntentError{Key: key.Clone(), TxnID: v.TxnID}
		}
		if visible {
			if v.Tombstone {
				return nil, false, nil
			}
			return v.Data, true, nil
		}
		if first {
			it.SeekGE(appendTimestamp(lo, readTs))
		} else {
			it.Next()
		}
	}
	return nil, false, it.Error()
}

// visibleVersion applies the snapshot visibility rules. conflict reports
// another transaction's intent at or below readTs, which the caller surfaces
// as a WriteIntentError.
func visibleVersion(v Version, readTs hlc.Timestamp, txnID uint64) (visible, conflict bool) {
	if v.IsIntent() && v.TxnID == txnID {
		// A transaction always reads its own provisional writes.
		return true, false
	}
	if readTs.Less(v.Ts) {
		// Version (or foreign intent) above the read timestamp: skip and
		// read below it.
		return false, false
	}
	return !v.IsIntent(), v.IsIntent()
}

// ScanResult is the outcome of a Scan.
type ScanResult struct {
	Rows []kvpb.KeyValue
	// Resume is the remainder of the span when maxKeys was reached.
	Resume *keys.Span
}

// scanSeekAfter is how many older versions of a decided key Scan steps over
// before it seeks to the next key instead: a step is cheaper than a seek, and
// most keys have a short history.
const scanSeekAfter = 4

// Scan returns up to maxKeys live rows in span visible at readTs to txnID.
// maxKeys <= 0 means unlimited.
//
// Versions of one user key share its encoded prefix, so the scan compares
// prefixes in place and decodes a user key only for a row it returns.
func Scan(e *lsm.Engine, span keys.Span, readTs hlc.Timestamp, txnID uint64, maxKeys int64) (ScanResult, error) {
	var res ScanResult
	var (
		curPrefix []byte // encoded user key being decided; aliases engine memory
		decided   bool   // whether visibility for it has been settled
		passed    int    // older versions of it stepped over since
		nextKey   []byte // seek target scratch
	)
	it := e.NewIter(EngineSpan(span))
	for it.Valid() {
		prefix, ts, err := splitKey(it.Key())
		if err != nil {
			return ScanResult{}, err
		}
		if !bytes.Equal(prefix, curPrefix) {
			if maxKeys > 0 && int64(len(res.Rows)) >= maxKeys {
				user, err := decodeUserKey(prefix)
				if err != nil {
					return ScanResult{}, err
				}
				res.Resume = &keys.Span{Key: user, EndKey: span.EndKey}
				return res, nil
			}
			curPrefix, decided, passed = prefix, false, 0
		}
		if decided {
			if passed++; passed < scanSeekAfter {
				it.Next()
			} else {
				// The prefix ends in the terminator byte; plus one is the
				// first storage key past every version of this user key.
				nextKey = append(nextKey[:0], curPrefix...)
				nextKey[len(nextKey)-1]++
				it.SeekGE(nextKey)
			}
			continue
		}
		v, err := iterValue(it)
		if err != nil {
			return ScanResult{}, err
		}
		v.Ts = ts
		visible, conflict := visibleVersion(v, readTs, txnID)
		if conflict || (visible && !v.Tombstone) {
			user, err := decodeUserKey(prefix)
			if err != nil {
				return ScanResult{}, err
			}
			if conflict {
				return ScanResult{}, &kvpb.WriteIntentError{Key: user, TxnID: v.TxnID}
			}
			res.Rows = append(res.Rows, kvpb.KeyValue{Key: user, Value: v.Data})
		}
		decided = visible
		it.Next()
	}
	return res, it.Error()
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
	var toDelete [][]byte
	var curKey keys.Key
	kept := false
	it := e.NewIter(EngineSpan(span))
	for ; it.Valid(); it.Next() {
		user, ts, err := DecodeKey(it.Key())
		if err != nil {
			return 0, err
		}
		if !user.Equal(curKey) {
			curKey = user.Clone()
			kept = false
		}
		v, err := iterValue(it)
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
	if err := it.Error(); err != nil {
		return 0, err
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
	it := e.NewIter(lo, hi)
	for ; it.Valid(); it.Next() {
		user, _, err := DecodeKey(it.Key())
		if err != nil {
			return nil, err
		}
		if user.Equal(curKey) {
			continue
		}
		curKey = user.Clone()
		v, err := iterValue(it)
		if err != nil {
			return nil, err
		}
		if v.IsIntent() && (txnID == 0 || v.TxnID == txnID) {
			out = append(out, curKey)
		}
	}
	return out, it.Error()
}

// EngineSpan translates a user-key span into the raw storage-key bounds that
// cover every MVCC version (and intent) of keys in the span. Replica
// rebalancing copies engine data with these bounds.
func EngineSpan(span keys.Span) (lo, hi []byte) {
	if span.IsPoint() {
		return versionBounds(span.Key)
	}
	return keyPrefix(span.Key), keyPrefix(span.EndKey)
}
