package kvserver

import (
	"encoding/binary"
	"fmt"

	"crdbserverless/internal/binenc"
	"crdbserverless/internal/hlc"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/lsm"
	"crdbserverless/internal/mvcc"
)

// Commands are the units replicated through a range's raft group. The
// leaseholder evaluates a batch into logical MVCC mutations under the range
// latch; every replica applies the same mutations deterministically.

// mutationKind enumerates replicated MVCC operations.
type mutationKind int

const (
	mutPut mutationKind = iota
	mutDelete
	mutResolve
)

// mutation is one replicated MVCC operation.
type mutation struct {
	Kind     mutationKind
	Key      keys.Key
	Ts       hlc.Timestamp
	TxnID    uint64
	Value    []byte
	Commit   bool          // for mutResolve
	CommitTs hlc.Timestamp // for mutResolve
}

// command is the replicated payload: an ordered list of mutations.
type command struct {
	Mutations []mutation
}

// Encoded form: uvarint mutation count, then per mutation
//
//	kind      1 byte
//	key       uvarint length, bytes
//	ts        8-byte wall time, 4-byte logical, big-endian
//	txnID     uvarint
//	value     uvarint length+1, bytes (0 encodes a nil value, 1 an empty one)
//	commit    1 byte, 0 or 1
//	commitTs  as ts
//
// minMutationSize is the encoding of a mutation with an empty key, a zero
// transaction ID and a nil value, which bounds the count a payload can hold;
// maxMutationOverhead is everything but the key and value bytes with the three
// uvarints at full width, which sizes the encoder's buffer.
const (
	minMutationSize     = 1 + 1 + 12 + 1 + 1 + 1 + 12
	maxMutationOverhead = minMutationSize + 3*(binary.MaxVarintLen64-1)
)

func appendTimestamp(b []byte, ts hlc.Timestamp) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(ts.WallTime))
	return binary.BigEndian.AppendUint32(b, uint32(ts.Logical))
}

func consumeTimestamp(r *binenc.Reader) hlc.Timestamp {
	return hlc.Timestamp{WallTime: int64(r.Uint64()), Logical: int32(r.Uint32())}
}

func encodeCommand(c command) []byte {
	size := binary.MaxVarintLen64
	for i := range c.Mutations {
		size += maxMutationOverhead + len(c.Mutations[i].Key) + len(c.Mutations[i].Value)
	}
	b := binary.AppendUvarint(make([]byte, 0, size), uint64(len(c.Mutations)))
	for i := range c.Mutations {
		m := &c.Mutations[i]
		b = append(b, byte(m.Kind))
		b = binenc.AppendBytes(b, m.Key)
		b = appendTimestamp(b, m.Ts)
		b = binary.AppendUvarint(b, m.TxnID)
		if m.Value == nil {
			b = append(b, 0)
		} else {
			b = binary.AppendUvarint(b, uint64(len(m.Value))+1)
			b = append(b, m.Value...)
		}
		b = binenc.AppendBool(b, m.Commit)
		b = appendTimestamp(b, m.CommitTs)
	}
	return b
}

// decodeCommand parses a raft entry. The entry is shared by every replica
// that applies it and stays in the log afterwards, so keys and values are
// sub-slices of one private copy of it rather than of the entry itself.
func decodeCommand(entry []byte) (command, error) {
	r := binenc.NewReader(append([]byte(nil), entry...))
	muts := make([]mutation, r.Count(minMutationSize))
	for i := range muts {
		m := &muts[i]
		m.Kind = mutationKind(r.Byte())
		m.Key = r.Bytes()
		m.Ts = consumeTimestamp(r)
		m.TxnID = r.Uvarint()
		if n := r.Uvarint(); n == 1 {
			m.Value = []byte{}
		} else if n > 1 {
			m.Value = r.Take(n - 1)
		}
		m.Commit = r.Bool()
		m.CommitTs = consumeTimestamp(r)
		if m.Kind > mutResolve {
			r.Fail()
		}
	}
	if err := r.Done(); err != nil {
		return command{}, fmt.Errorf("kvserver: decoding command: %w", err)
	}
	return command{Mutations: muts}, nil
}

// applyMutations applies a decoded command to an engine. It is the state
// machine transition shared by every replica. It uses the replication-side
// MVCC variants: conflict checking already ran during evaluation on the
// leaseholder, and application must succeed deterministically — including
// when a recovered store re-applies a command whose effects partially
// survived a crash (see mvcc.ApplyPut).
func applyMutations(e *lsm.Engine, c command) error {
	for _, m := range c.Mutations {
		var err error
		switch m.Kind {
		case mutPut:
			err = mvcc.ApplyPut(e, m.Key, m.Ts, m.TxnID, m.Value)
		case mutDelete:
			err = mvcc.ApplyDelete(e, m.Key, m.Ts, m.TxnID)
		case mutResolve:
			err = mvcc.ResolveIntent(e, m.Key, m.TxnID, m.Commit, m.CommitTs)
		default:
			err = fmt.Errorf("kvserver: unknown mutation kind %d", m.Kind)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
