package kvserver

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"crdbserverless/internal/binenc"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/lsm"
	"crdbserverless/internal/mvcc"
)

// rawKeyPrefix prefixes engine keys that live outside the MVCC keyspace.
// MVCC storage keys all start with the keys package's bytes marker (0x12),
// so 0x01-prefixed keys sort below every versioned key and are invisible to
// MVCC iteration.
const rawKeyPrefix = 0x01

// appliedKey is the engine key holding a range's durably applied raft index
// on a replica. engineSM.Apply writes it after every command; RecoverNode
// reads it after a crash to regress the replication group's view of the
// replica to what its storage actually retained.
func appliedKey(id RangeID) []byte {
	return appendAppliedKey(make([]byte, 0, appliedKeyLen), id)
}

// appliedKeyLen is the length of an applied key: the prefix and the range ID.
const appliedKeyLen = 8 + 8

// appendAppliedKey appends range id's applied key to b.
func appendAppliedKey(b []byte, id RangeID) []byte {
	b = append(b, rawKeyPrefix, 'a', 'p', 'p', 'l', 'i', 'e', 'd')
	return keys.EncodeUint64(b, uint64(id))
}

// durableAppliedIndex reads a range's persisted applied index from an engine
// (0 when the replica has never applied a command durably): an iterator
// from the applied key, which must land on exactly that key.
func durableAppliedIndex(e *lsm.Engine, id RangeID) (uint64, error) {
	k := appliedKey(id)
	it := e.NewIter(k, nil)
	if !it.Valid() || !bytes.Equal(it.Key(), k) {
		return 0, nil
	}
	_, idx, err := keys.DecodeUint64(keys.Key(it.Value()))
	if err != nil {
		return 0, fmt.Errorf("kvserver: decoding applied key for range %d: %w", id, err)
	}
	return idx, nil
}

// enginePair is one raw engine KV pair inside a replica snapshot.
type enginePair struct {
	Key, Value []byte
}

// Encoded snapshot: a uvarint pair count, then per pair the key and the
// value, each a uvarint length and its bytes. minPairSize (two empty byte
// strings) bounds the count a snapshot can hold.
const minPairSize = 2

func encodeSnapshot(pairs []enginePair) []byte {
	size := binary.MaxVarintLen64
	for _, p := range pairs {
		size += 2*binary.MaxVarintLen64 + len(p.Key) + len(p.Value)
	}
	b := binary.AppendUvarint(make([]byte, 0, size), uint64(len(pairs)))
	for _, p := range pairs {
		b = binenc.AppendBytes(b, p.Key)
		b = binenc.AppendBytes(b, p.Value)
	}
	return b
}

// decodeSnapshot parses a snapshot. Keys and values are sub-slices of data.
func decodeSnapshot(data []byte) ([]enginePair, error) {
	r := binenc.NewReader(data)
	pairs := make([]enginePair, r.Count(minPairSize))
	for i := range pairs {
		pairs[i] = enginePair{Key: r.Bytes(), Value: r.Bytes()}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("kvserver: decoding snapshot: %w", err)
	}
	return pairs, nil
}

// Snapshot implements raftlite.SnapshotStateMachine: it serializes every
// engine pair in the range's span (all MVCC versions and intents). A replica
// that fell behind the group's truncated log — a store revived after a crash
// — is caught up from this instead of replay. The iterator's values alias
// immutable engine memory, so only its keys, lent until it moves, are copied
// before encoding.
func (sm engineSM) Snapshot() ([]byte, error) {
	lo, hi := mvcc.EngineSpan(sm.rs.desc.Span)
	var pairs []enginePair
	for it := sm.n.Engine().NewIter(lo, hi); it.Valid(); it.Next() {
		pairs = append(pairs, enginePair{Key: bytes.Clone(it.Key()), Value: it.Value()})
	}
	return encodeSnapshot(pairs), nil
}

// ApplySnapshot implements raftlite.SnapshotStateMachine: it replaces the
// replica's span contents with the donor's pairs. The span wipe, the new
// pairs, and the applied-index bump land in one engine batch — one WAL
// record — so a crash mid-snapshot leaves either the old replica state or
// the complete new one, never a blend. ApplyBatch copies what it keeps, so
// the entries may alias data and engine memory.
func (sm engineSM) ApplySnapshot(index uint64, data []byte) error {
	pairs, err := decodeSnapshot(data)
	if err != nil {
		return err
	}
	desc := sm.rs.desc
	lo, hi := mvcc.EngineSpan(desc.Span)
	e := sm.n.Engine()
	var ents []lsm.Entry
	for it := e.NewIter(lo, hi); it.Valid(); it.Next() {
		ents = append(ents, lsm.Entry{Key: bytes.Clone(it.Key()), Tombstone: true})
	}
	// Pairs follow the wipe: a key present in both resolves to the donor's
	// value (later entries win within a batch).
	for _, p := range pairs {
		ents = append(ents, lsm.Entry{Key: p.Key, Value: p.Value})
	}
	ents = append(ents, lsm.Entry{
		Key:   appliedKey(desc.RangeID),
		Value: keys.EncodeUint64(nil, index),
	})
	return e.ApplyBatch(ents)
}

// RecoverNode reconciles the replication groups with a node's storage after
// a crash-and-reopen (Node.Crash): for every range holding a replica there,
// it reads the durably applied index and regresses the group's view of the
// replica to it. A suffix of applied commands lost with the torn WAL tail is
// re-applied by the next catch-up — or, if the log was truncated past the
// regressed index, the replica rejoins via snapshot.
func (c *Cluster) RecoverNode(id NodeID) error {
	n, ok := c.Node(id)
	if !ok {
		return fmt.Errorf("kvserver: unknown node %d", id)
	}
	e := n.Engine()
	for _, rs := range c.dir.byID() {
		if !hasReplica(rs, id) {
			continue
		}
		applied, err := durableAppliedIndex(e, rs.desc.RangeID)
		if err != nil {
			return err
		}
		if err := rs.group.RegressApplied(id, applied); err != nil {
			return err
		}
	}
	return nil
}
