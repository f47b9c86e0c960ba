package kvserver

import (
	"encoding/binary"
	"fmt"

	"crdbserverless/internal/binenc"
	"crdbserverless/internal/lsm"
)

// Commands are the units replicated through a range's raft group. The
// leaseholder evaluates a batch under the range latch into the raw engine
// entries it writes (mvcc.Entries); every replica
// applies that entry list as it is, in one engine batch, with no reads and no
// MVCC logic of its own.
//
// Encoded form: uvarint entry count, then per entry
//
//	tombstone  1 byte, 0 or 1
//	key        uvarint length, bytes
//	value      uvarint length, bytes
//
// minEntrySize is the encoding of an entry with an empty key and value, which
// bounds the count a payload can hold.
const minEntrySize = 3

func encodeCommand(ents []lsm.Entry) []byte {
	size := binary.MaxVarintLen64
	for _, ent := range ents {
		size += 1 + 2*binary.MaxVarintLen64 + len(ent.Key) + len(ent.Value)
	}
	b := binary.AppendUvarint(make([]byte, 0, size), uint64(len(ents)))
	for _, ent := range ents {
		b = binenc.AppendBool(b, ent.Tombstone)
		b = binenc.AppendBytes(b, ent.Key)
		b = binenc.AppendBytes(b, ent.Value)
	}
	return b
}

// decodeCommand parses a raft entry into buf's array when it has room, and
// into a new one otherwise, with room for one more entry: the applied index
// engineSM.Apply adds. Keys and values are sub-slices of the entry, which
// every replica shares and the log keeps: the engine copies what it keeps,
// so nothing decoded outlives the apply, and buf may be on the applier's
// stack.
func decodeCommand(buf []lsm.Entry, entry []byte) ([]lsm.Entry, error) {
	r := binenc.NewReader(entry)
	n := r.Count(minEntrySize)
	// Filled by index, not appended: an append could copy buf's entries to
	// the heap, and the escape analysis then keeps none of them on the
	// applier's stack.
	var ents []lsm.Entry
	if cap(buf) > n {
		ents = buf[:n]
	} else {
		ents = make([]lsm.Entry, n, n+1)
	}
	for i := range ents {
		ents[i] = lsm.Entry{Tombstone: r.Bool(), Key: r.Bytes(), Value: r.Bytes()}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("kvserver: decoding command: %w", err)
	}
	return ents, nil
}
