package kvserver

import (
	"bytes"
	"encoding/gob"
	"fmt"

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
	k := []byte{rawKeyPrefix, 'a', 'p', 'p', 'l', 'i', 'e', 'd'}
	return keys.EncodeUint64(k, uint64(id))
}

// durableAppliedIndex reads a range's persisted applied index from an engine
// (0 when the replica has never applied a command durably).
func durableAppliedIndex(e *lsm.Engine, id RangeID) (uint64, error) {
	v, ok, err := e.Get(appliedKey(id))
	if err != nil || !ok {
		return 0, err
	}
	_, idx, err := keys.DecodeUint64(keys.Key(v))
	if err != nil {
		return 0, fmt.Errorf("kvserver: decoding applied key for range %d: %w", id, err)
	}
	return idx, nil
}

// enginePair is one raw engine KV pair inside a replica snapshot.
type enginePair struct {
	Key, Value []byte
}

// Snapshot implements raftlite.SnapshotStateMachine: it serializes every
// engine pair in the range's span (all MVCC versions and intents, value-log
// pointers resolved). A replica that fell behind the group's truncated log —
// a store revived after a crash — is caught up from this instead of replay.
func (sm engineSM) Snapshot() ([]byte, error) {
	lo, hi := mvcc.EngineSpan(sm.rs.desc.Load().Span)
	var pairs []enginePair
	e := sm.n.Engine()
	it := e.NewIter(lo, hi)
	for ; it.Valid(); it.Next() {
		pairs = append(pairs, enginePair{
			Key:   append([]byte(nil), it.Key()...),
			Value: append([]byte(nil), it.Value()...),
		})
	}
	if err := it.Error(); err != nil {
		return nil, fmt.Errorf("kvserver: reading snapshot: %w", err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(pairs); err != nil {
		return nil, fmt.Errorf("kvserver: encoding snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// ApplySnapshot implements raftlite.SnapshotStateMachine: it replaces the
// replica's span contents with the donor's pairs. The span wipe, the new
// pairs, and the applied-index bump land in one engine batch — one WAL
// record — so a crash mid-snapshot leaves either the old replica state or
// the complete new one, never a blend.
func (sm engineSM) ApplySnapshot(index uint64, data []byte) error {
	var pairs []enginePair
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&pairs); err != nil {
		return fmt.Errorf("kvserver: decoding snapshot: %w", err)
	}
	desc := sm.rs.desc.Load()
	lo, hi := mvcc.EngineSpan(desc.Span)
	e := sm.n.Engine()
	var ents []lsm.Entry
	for it := e.NewIter(lo, hi); it.Valid(); it.Next() {
		ents = append(ents, lsm.Entry{
			Key:       append([]byte(nil), it.Key()...),
			Tombstone: true,
		})
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
	for _, rs := range c.rangesByID() {
		if !hasReplica(rs, id) {
			continue
		}
		applied, err := durableAppliedIndex(e, rs.desc.Load().RangeID)
		if err != nil {
			return err
		}
		if err := rs.group.Load().RegressApplied(id, applied); err != nil {
			return err
		}
	}
	return nil
}
