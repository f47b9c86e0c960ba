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
	"slices"
	"sync"

	"crdbserverless/internal/hlc"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/lsm"
)

// appendKey appends the storage key for (user key, timestamp) to b. For a
// single user key, versions sort newest-first, so the first storage entry
// for a key is its latest version.
func appendKey(b []byte, user keys.Key, ts hlc.Timestamp) []byte {
	return appendTimestamp(keys.EncodeBytes(b, user), ts)
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
	return versionBoundsIn(make([]byte, 0, boundsLen(user)), user)
}

// boundsLen is the capacity versionBoundsIn needs for user.
func boundsLen(user keys.Key) int { return 2*keys.EncodedBytesLen(user) + timestampLen }

// versionBoundsIn is versionBounds in buf's array, whose capacity is at
// least boundsLen.
func versionBoundsIn(buf []byte, user keys.Key) (lo, hi []byte) {
	n := keys.EncodedBytesLen(user)
	buf = keys.EncodeBytes(buf[:0], user)
	buf = append(buf, buf...)
	buf[n-1]++
	return buf[n : 2*n], buf[:n:n]
}

// Lookup is the storage of a point lookup: the iterator it positions and the
// key's version bounds. A caller that makes lookups one after another — a
// leaseholder evaluating a batch under its range latch — keeps one Lookup
// for all of them, and each reuses what the one before it allocated. The
// zero value is ready. The iterator holds the engine snapshot of the last
// lookup until Release.
type Lookup struct {
	it     lsm.Iterator
	bounds []byte
}

// Release drops the engine snapshot of l's last lookup; l stays ready for
// the next one, and keeps the iterator's storage for it.
func (l *Lookup) Release() { l.it.Release() }

// seek positions l's iterator on key's newest version, and returns the
// bounds of key's versions: lo has room behind it for a timestamp.
func (l *Lookup) seek(e *lsm.Engine, key keys.Key) (lo, hi []byte) {
	if n := boundsLen(key); cap(l.bounds) < n {
		l.bounds = make([]byte, 0, n)
	}
	lo, hi = versionBoundsIn(l.bounds, key)
	e.IterIn(&l.it, lo, hi)
	return lo, hi
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
	// valueHeaderLen is the length of a version value's header: the flags
	// byte, then the transaction ID as 8 bytes big-endian. Data follows it.
	valueHeaderLen = 9
)

// appendValue appends a version's value portion (timestamp lives in the
// key) to out.
func appendValue(out []byte, v Version) []byte {
	var flags byte
	if v.Tombstone {
		flags |= flagTombstone
	}
	out = append(out, flags)
	out = keys.EncodeUint64(out, v.TxnID)
	return append(out, v.Data...)
}

func decodeValue(b []byte) (Version, error) {
	tombstone, txnID, err := valueHeader(b)
	if err != nil {
		return Version{}, err
	}
	v := Version{Tombstone: tombstone, TxnID: txnID}
	if len(b) > valueHeaderLen {
		v.Data = b[valueHeaderLen:]
	}
	return v, nil
}

// valueHeader reads a version value's header in place.
func valueHeader(b []byte) (tombstone bool, txnID uint64, err error) {
	if len(b) < valueHeaderLen {
		return false, 0, fmt.Errorf("mvcc: short value (%d bytes)", len(b))
	}
	return b[0]&flagTombstone != 0, binary.BigEndian.Uint64(b[1:valueHeaderLen]), nil
}

// CheckWriteConflict reports the conflict a write at (ts, txnID) on key would
// encounter: WriteIntentError for another transaction's intent, or
// WriteTooOldError for a committed version at or above ts. The KV layer runs
// this during evaluation, before replicating a command, so that command
// application cannot fail partway through a batch. Without a conflict it
// returns key's newest version, the zero Version when key has none: the
// write's Entries.Put takes it, so the key is looked up once. Its Data
// aliases engine memory.
func (l *Lookup) CheckWriteConflict(e *lsm.Engine, key keys.Key, ts hlc.Timestamp, txnID uint64) (Version, error) {
	newest, ok, err := l.newestVersion(e, key)
	if err != nil || !ok {
		return Version{}, err
	}
	if newest.IsIntent() && newest.TxnID != txnID {
		return Version{}, &kvpb.WriteIntentError{Key: key.Clone(), TxnID: newest.TxnID}
	}
	if !newest.IsIntent() && !newest.Ts.Less(ts) {
		return Version{}, &kvpb.WriteTooOldError{Key: key.Clone(), ActualTs: newest.Ts.Next()}
	}
	return newest, nil
}

// CommittedVersionAt returns the committed version of key written at exactly
// ts, if there is one. A replica asks this to recognise a commit batch it has
// applied before (kvserver.evalBatch). It is one seek among the key's
// versions, to key@ts, which must land on exactly that storage key.
func (l *Lookup) CommittedVersionAt(e *lsm.Engine, key keys.Key, ts hlc.Timestamp) (Version, bool, error) {
	lo, _ := l.seek(e, key)
	at := appendTimestamp(lo, ts)
	it := &l.it
	it.SeekGE(at)
	if !it.Valid() || !bytes.Equal(it.Key(), at) {
		return Version{}, false, nil
	}
	v, err := decodeValue(it.Value())
	if err != nil || v.IsIntent() {
		return Version{}, false, err
	}
	v.Ts = ts
	return v, true, nil
}

// Entries is the engine entries of one command as the leaseholder builds
// them under the range latch, after CheckWriteConflict: replicas apply the
// entries as they are, in one engine batch, with no reads of their own. The
// entries' keys and values lie in a slab of Entries' own, so a command of
// many writes takes a few allocations rather than two per write. A full slab
// is replaced, not overwritten: every entry stays valid as long as Entries.
type Entries struct {
	List []lsm.Entry
	slab []byte
}

// minEntriesSlab is the smallest slab Entries allocates: a few writes.
const minEntriesSlab = 256

// PutBytes is the bytes Put takes in the slab for a write of value to key,
// beside any tombstone for an intent it replaces.
func PutBytes(key keys.Key, value []byte) int {
	return keys.EncodedBytesLen(key) + timestampLen + valueHeaderLen + len(value)
}

// Grow makes room for n more entries, and bytes more bytes in the slab.
func (b *Entries) Grow(n, bytes int) {
	b.List = slices.Grow(b.List, n)
	b.room(bytes)
}

// room makes room for n more bytes in the slab.
func (b *Entries) room(n int) {
	if cap(b.slab)-len(b.slab) < n {
		b.slab = make([]byte, 0, max(2*cap(b.slab), n, minEntriesSlab))
	}
}

// add appends an entry for key's version at ts: v's value, or a tombstone
// when v is nil.
func (b *Entries) add(key keys.Key, ts hlc.Timestamp, v *Version) {
	n := keys.EncodedBytesLen(key) + timestampLen
	if v != nil {
		n += valueHeaderLen + len(v.Data)
	}
	b.room(n)
	off := len(b.slab)
	b.slab = appendKey(b.slab, key, ts)
	ent := lsm.Entry{Key: b.slab[off:len(b.slab):len(b.slab)], Tombstone: v == nil}
	if v != nil {
		off = len(b.slab)
		b.slab = appendValue(b.slab, *v)
		ent.Value = b.slab[off:len(b.slab):len(b.slab)]
	}
	b.List = append(b.List, ent)
}

// Put appends the entries that write v as key's newest version: when v is an
// intent and prior, key's newest version as CheckWriteConflict found it, is
// an earlier intent of the same transaction, a tombstone for that one, then
// v itself. The tombstone and its replacement share one WAL record, so a
// crash never surfaces both versions, or neither. Only an intent can have an
// earlier intent of its own to replace.
func (b *Entries) Put(key keys.Key, v Version, prior Version) {
	if v.IsIntent() && prior.IsIntent() && prior.TxnID == v.TxnID {
		b.add(key, prior.Ts, nil)
	}
	b.add(key, v.Ts, &v)
}

// iterVersion decodes the version the iterator is positioned on. The value
// holds a version without its timestamp, which lives in the key.
func iterVersion(it *lsm.Iterator) (Version, error) {
	v, err := decodeValue(it.Value())
	if err != nil {
		return Version{}, err
	}
	_, v.Ts, err = splitKey(it.Key())
	return v, err
}

// newestVersion returns the latest version of key, decoded: one iterator
// position, however long the key's history.
func (l *Lookup) newestVersion(e *lsm.Engine, key keys.Key) (Version, bool, error) {
	l.seek(e, key)
	it := &l.it
	if !it.Valid() {
		return Version{}, false, nil
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
	return new(Lookup).Get(e, key, readTs, txnID)
}

// Get is the package's Get in l's storage. The value aliases engine memory,
// as the package's does, and outlives the lookup.
func (l *Lookup) Get(e *lsm.Engine, key keys.Key, readTs hlc.Timestamp, txnID uint64) ([]byte, bool, error) {
	lo, _ := l.seek(e, key)
	it := &l.it
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
	return nil, false, nil
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
// maxKeys <= 0 means unlimited. The rows are in fresh memory their holder may
// keep.
func Scan(e *lsm.Engine, span keys.Span, readTs hlc.Timestamp, txnID uint64, maxKeys int64) (ScanResult, error) {
	return ScanInto(e, span, readTs, txnID, maxKeys, nil)
}

// ScanInto is Scan reading into page, a pooled page (kvpb.DrawPage), when it
// is non-nil: the rows are then the page's, valid until it is released. A nil
// page reads into fresh memory, as Scan does. Each row's key is decoded into
// the page's key slab (kvpb.Page.AppendRow).
func ScanInto(e *lsm.Engine, span keys.Span, readTs hlc.Timestamp, txnID uint64, maxKeys int64, page *kvpb.Page) (ScanResult, error) {
	if page == nil {
		page = new(kvpb.Page)
	}
	resume, err := ScanFunc(e, span, readTs, txnID, maxKeys, page.AppendRow)
	if err != nil {
		return ScanResult{}, err
	}
	return ScanResult{Rows: page.Rows, Resume: resume}, nil
}

// ScanFunc is Scan handing each row to visit as the scan reaches it, in key
// order, instead of keeping it: enc is the row's user key as
// keys.EncodeBytes wrote it, and value its value. enc is the iterator's lent
// key, valid until visit returns; value aliases engine memory, which does not
// change under it: ScanInto's page keeps each value. maxKeys bounds the rows
// visited, and the span not reached is returned as Scan's Resume is. An error from visit ends the scan and is returned.
//
// Versions of one user key share its encoded prefix, so the scan compares
// prefixes in place and never decodes a user key, except a resume key or a
// conflicting intent's.
func ScanFunc(e *lsm.Engine, span keys.Span, readTs hlc.Timestamp, txnID uint64, maxKeys int64, visit func(enc, value []byte) error) (*keys.Span, error) {
	var (
		curPrefix []byte // encoded user key being decided, copied from the lent key
		decided   bool   // whether visibility for it has been settled
		passed    int    // older versions of it stepped over since
		nextKey   []byte // seek target scratch
		visited   int64
	)
	it := scanIters.Get().(*lsm.Iterator)
	defer releaseScanIter(it)
	lo, hi := EngineSpan(span)
	e.IterIn(it, lo, hi)
	for it.Valid() {
		prefix, ts, err := splitKey(it.Key())
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(prefix, curPrefix) {
			if maxKeys > 0 && visited >= maxKeys {
				user, err := decodeUserKey(prefix)
				if err != nil {
					return nil, err
				}
				return &keys.Span{Key: user, EndKey: span.EndKey}, nil
			}
			curPrefix, decided, passed = append(curPrefix[:0], prefix...), false, 0
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
		// Visibility reads the value's header alone.
		value := it.Value()
		tombstone, vTxnID, err := valueHeader(value)
		if err != nil {
			return nil, err
		}
		visible, conflict := visibleVersion(Version{Ts: ts, TxnID: vTxnID}, readTs, txnID)
		if conflict {
			user, err := decodeUserKey(prefix)
			if err != nil {
				return nil, err
			}
			return nil, &kvpb.WriteIntentError{Key: user, TxnID: vTxnID}
		}
		if visible && !tombstone {
			if err := visit(prefix, value[valueHeaderLen:]); err != nil {
				return nil, err
			}
			visited++
		}
		decided = visible
		it.Next()
	}
	return nil, nil
}

// scanIters keeps ScanFunc's iterators between scans, with the storage each
// grew: its sources and the buffers a table source lends keys from.
var scanIters = sync.Pool{New: func() any { return new(lsm.Iterator) }}

// releaseScanIter drops the iterator's snapshot and returns it to scanIters.
func releaseScanIter(it *lsm.Iterator) {
	it.Release()
	scanIters.Put(it)
}

// Resolve appends the entries that finalize txnID's intent on key: a
// tombstone for the intent, then, when commit is true, the same version
// committed at commitTs. It appends nothing when key holds no intent of
// txnID, so resolution stays idempotent (the txn layer retries it). Applied
// as one engine batch, the intent's removal and its committed rewrite share
// one WAL record. The lookup is l's.
func (b *Entries) Resolve(l *Lookup, e *lsm.Engine, key keys.Key, txnID uint64, commit bool, commitTs hlc.Timestamp) error {
	v, ok, err := l.newestVersion(e, key)
	if err != nil || !ok || !v.IsIntent() || v.TxnID != txnID {
		return err
	}
	b.add(key, v.Ts, nil)
	if commit {
		committed := Version{Ts: commitTs, Tombstone: v.Tombstone, Data: v.Data}
		b.add(key, commitTs, &committed)
	}
	return nil
}

// GCOldVersions removes the versions of each key in span that no read at or
// above keepAfter can see, and returns how many it removed: intents and
// versions above keepAfter survive, and so does the newest committed version
// at or below keepAfter unless it is a deletion tombstone, which reads as
// nothing does. This is the storage reclamation path (MVCC GC). The removals
// go to the engine as one batch.
func GCOldVersions(e *lsm.Engine, span keys.Span, keepAfter hlc.Timestamp) (int, error) {
	var toDelete []lsm.Entry
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
		v, err := decodeValue(it.Value())
		if err != nil {
			return 0, err
		}
		if v.IsIntent() || keepAfter.Less(ts) {
			continue // intents and recent versions always survive
		}
		if !kept {
			kept = true // the version a read at keepAfter sees survives
			if !v.Tombstone {
				continue
			}
		}
		// The iterator lends its key only until it moves.
		toDelete = append(toDelete, lsm.Entry{Key: bytes.Clone(it.Key()), Tombstone: true})
	}
	if err := e.ApplyBatch(toDelete); err != nil {
		return 0, err
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
	if span.IsPoint() {
		return versionBounds(span.Key)
	}
	return keyPrefix(span.Key), keyPrefix(span.EndKey)
}
