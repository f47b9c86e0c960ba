package kvserver

import (
	"bytes"
	"reflect"
	"testing"

	"crdbserverless/internal/hlc"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/lsm"
	"crdbserverless/internal/mvcc"
)

// goldenSnapshot and goldenSnapshotHex fix the span snapshot a lagging
// replica is caught up from. A diff here is a format change: a replica could
// not install a snapshot from a donor on the other side of it.
var goldenSnapshot = []enginePair{
	{Key: []byte("a"), Value: []byte("v1")},
	{Key: []byte("bc"), Value: []byte{}},
}

const goldenSnapshotHex = "02" + // two pairs
	"0161" + "027631" + // "a" -> "v1"
	"026263" + "00" // "bc" -> empty value

func TestSnapshotGolden(t *testing.T) {
	want := mustHex(t, goldenSnapshotHex)
	if got := encodeSnapshot(goldenSnapshot); !bytes.Equal(got, want) {
		t.Fatalf("encoded snapshot\n got %x\nwant %x", got, want)
	}
	got, err := decodeSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, goldenSnapshot) {
		t.Fatalf("decoded snapshot = %q", got)
	}
	if got, err := decodeSnapshot(encodeSnapshot(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty snapshot = %q, %v", got, err)
	}
}

func TestDecodeSnapshotRejectsMalformedInput(t *testing.T) {
	golden := mustHex(t, goldenSnapshotHex)
	for cut := 0; cut < len(golden); cut++ {
		if pairs, err := decodeSnapshot(golden[:cut]); err == nil {
			t.Errorf("snapshot truncated to %d of %d bytes decoded to %q", cut, len(golden), pairs)
		}
	}
	for name, in := range map[string]string{
		"trailing byte":           goldenSnapshotHex + "00",
		"count beyond input":      "03" + goldenSnapshotHex[2:],
		"count near 2^64":         "ffffffffffffffffff01" + goldenSnapshotHex[2:],
		"key longer than input":   "01" + "7f61" + "00",
		"value length near 2^64":  "01" + "0161" + "ffffffffffffffffff01",
		"unterminated key length": "01" + "80",
	} {
		if pairs, err := decodeSnapshot(mustHex(t, in)); err == nil {
			t.Errorf("%s (%s) decoded to %q", name, in, pairs)
		}
	}
}

// A snapshot carries a range's whole MVCC state. Applied on a replica whose
// span holds stale versions, it leaves committed versions, tombstones and an
// intent reading exactly as on the donor, records the snapshot's index under
// the range's applied key, and leaves keys outside the span alone.
func TestSnapshotRoundTripBetweenReplicas(t *testing.T) {
	c := newTestCluster(t, 1)
	const tenant = 2
	rs, err := c.rangeFor(tenantKey(tenant, "a"))
	if err != nil {
		t.Fatal(err)
	}
	donor, _ := c.Node(1)
	recv := NewNode(NodeConfig{ID: 9, VCPUs: 2})
	at := func(wall int64) hlc.Timestamp { return hlc.Timestamp{WallTime: wall} }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	de := donor.Engine()
	put := func(e *lsm.Engine, k string, wall int64, txnID uint64, v []byte) {
		t.Helper()
		must(applyVersion(e, tenantKey(tenant, k), mvcc.Version{Ts: at(wall), TxnID: txnID, Data: v}))
	}
	put(de, "a", 10, 0, []byte("a1"))
	put(de, "a", 20, 0, []byte("a2"))
	put(de, "b", 10, 0, []byte("b1"))
	must(applyVersion(de, tenantKey(tenant, "b"), mvcc.Version{Ts: at(30), Tombstone: true}))
	put(de, "c", 10, 0, []byte{})
	const intentTxn = 7
	put(de, "d", 40, intentTxn, []byte("d-intent"))

	re := recv.Engine()
	put(re, "a", 50, 0, []byte("stale"))
	put(re, "z", 5, 0, []byte("stale"))
	outside := appliedKey(rs.desc.RangeID + 1)
	must(re.ApplyBatch([]lsm.Entry{{Key: outside, Value: []byte("other range")}}))

	data, err := engineSM{n: donor, rs: rs}.Snapshot()
	must(err)
	const index = 42
	must(engineSM{n: recv, rs: rs}.ApplySnapshot(index, data))

	span := keys.MakeTenantSpan(tenant)
	for _, read := range []struct {
		ts  int64
		txn uint64
	}{{5, 0}, {15, 0}, {25, 0}, {35, 0}, {45, 0}, {55, intentTxn}} {
		// Above the intent, a read by another transaction conflicts with it.
		want, wantErr := mvcc.Scan(de, span, at(read.ts), read.txn, 0)
		got, gotErr := mvcc.Scan(re, span, at(read.ts), read.txn, 0)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
			t.Errorf("scan at %d by txn %d: receiver %q, %v; donor %q, %v",
				read.ts, read.txn, got.Rows, gotErr, want.Rows, wantErr)
		}
	}
	if applied, err := durableAppliedIndex(re, rs.desc.RangeID); err != nil || applied != index {
		t.Errorf("applied index = %d, %v; want %d", applied, err, index)
	}
	if it := re.NewIter(outside, nil); !it.Valid() || !bytes.Equal(it.Key(), outside) || string(it.Value()) != "other range" {
		t.Error("the key outside the span did not survive")
	}
}

// FuzzDecodeSnapshot: no input makes the decoder panic, and whatever decodes
// re-encodes to bytes that decode to the same pairs.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(mustHex(f, goldenSnapshotHex))
	f.Add([]byte{0})
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, in []byte) {
		pairs, err := decodeSnapshot(in)
		if err != nil {
			return
		}
		enc := encodeSnapshot(pairs)
		again, err := decodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-encoding of %x does not decode: %v (%x)", in, err, enc)
		}
		if !reflect.DeepEqual(again, pairs) {
			t.Fatalf("%x decodes to %q, its re-encoding to %q", in, pairs, again)
		}
	})
}

// applyVersion writes v for key as a replica applies a command:
// mvcc.Entries.Put's entries in one engine batch.
// The intent it replaces is the one mvcc.Lookup.CheckWriteConflict finds.
func applyVersion(e *lsm.Engine, key keys.Key, v mvcc.Version) error {
	prior, _ := new(mvcc.Lookup).CheckWriteConflict(e, key, v.Ts, v.TxnID)
	var b mvcc.Entries
	b.Put(key, v, prior)
	return e.ApplyBatch(b.List)
}
