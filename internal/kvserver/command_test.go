package kvserver

import (
	"bytes"
	"encoding/hex"
	"testing"

	"crdbserverless/internal/hlc"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/lsm"
	"crdbserverless/internal/mvcc"
	"crdbserverless/internal/randutil"
)

// goldenCommand and goldenCommandHex fix the replicated command format. A
// diff here is a format change: replicas on either side of it could not apply
// each other's raft entries.
var goldenCommand = []lsm.Entry{
	{Key: []byte("a"), Value: []byte("v1")},
	{Key: []byte("bc"), Tombstone: true},
	{Key: []byte("d"), Value: []byte{}},
}

const goldenCommandHex = "03" + // three entries
	"00" + "0161" + "027631" + // put "a" -> "v1"
	"01" + "026263" + "00" + // tombstone for "bc"
	"00" + "0164" + "00" // put "d" -> empty value

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameEntries compares entry lists as the engine sees them: a nil value and
// an empty one are the same value.
func sameEntries(a, b []lsm.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Tombstone != b[i].Tombstone || !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

func TestCommandGolden(t *testing.T) {
	want := mustHex(t, goldenCommandHex)
	if got := encodeCommand(goldenCommand); !bytes.Equal(got, want) {
		t.Fatalf("encoded command\n got %x\nwant %x", got, want)
	}
	got, err := decodeCommand(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEntries(got, goldenCommand) {
		t.Fatalf("decoded command = %v", got)
	}
	if got, err := decodeCommand(nil, encodeCommand(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty command = %v, %v", got, err)
	}
}

// The decoded entries alias the raft entry, which every replica shares and
// the log keeps: the engine must copy what it keeps, so overwriting the entry
// after Apply leaves the applied state as it was.
func TestOverwritingTheEntryAfterApplyLeavesTheEngine(t *testing.T) {
	c := newTestCluster(t, 1)
	rs, err := c.rangeFor(tenantKey(2, "a"))
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode(NodeConfig{ID: 9, VCPUs: 2})
	entry := mustHex(t, goldenCommandHex)
	const index = 7
	if err := (engineSM{n: n, rs: rs}).Apply(index, entry); err != nil {
		t.Fatal(err)
	}
	for i := range entry {
		entry[i] = 0xff
	}
	applied := appliedKey(rs.desc.RangeID)
	want := []lsm.Entry{
		{Key: applied, Value: keys.EncodeUint64(nil, index)},
		goldenCommand[0],
		goldenCommand[2],
	}
	var got []lsm.Entry
	for it := n.Engine().NewIter(nil, nil); it.Valid(); it.Next() {
		got = append(got, lsm.Entry{Key: bytes.Clone(it.Key()), Value: bytes.Clone(it.Value())})
	}
	if !sameEntries(got, want) {
		t.Fatalf("engine after overwriting the entry = %v, want %v", got, want)
	}
}

func TestCommandRandomRoundTrip(t *testing.T) {
	rng := randutil.NewRand(18)
	for i := 0; i < 1000; i++ {
		ents := make([]lsm.Entry, rng.Intn(8))
		for j := range ents {
			ents[j] = lsm.Entry{
				Key:       randutil.RandBytes(rng, rng.Intn(30)),
				Value:     randutil.RandBytes(rng, rng.Intn(200)),
				Tombstone: rng.Intn(2) == 1,
			}
		}
		got, err := decodeCommand(nil, encodeCommand(ents))
		if err != nil {
			t.Fatalf("command %d: %v", i, err)
		}
		if !sameEntries(got, ents) {
			t.Fatalf("command %d round trip\n got %v\nwant %v", i, got, ents)
		}
	}
}

// TestCommandRoundTrip carries a transaction's put and its committing resolve
// through the codec as the leaseholder builds them, and applies each decoded
// command the way a replica does: the committed value is what a reader sees.
func TestCommandRoundTrip(t *testing.T) {
	e := lsm.New(lsm.Options{})
	k := keys.Key("k")
	ts := hlc.Timestamp{WallTime: 10}
	propose := func(ents []lsm.Entry, err error) []lsm.Entry {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeCommand(nil, encodeCommand(ents))
		if err != nil {
			t.Fatal(err)
		}
		if !sameEntries(got, ents) {
			t.Fatalf("round trip\n got %v\nwant %v", got, ents)
		}
		if err := e.ApplyBatch(got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	var put mvcc.Entries
	put.Put(k, mvcc.Version{Ts: ts, TxnID: 7, Data: []byte("v")}, mvcc.Version{})
	if put := propose(put.List, nil); len(put) != 1 {
		t.Fatalf("put = %v, want one intent", put)
	}
	var resolve mvcc.Entries
	err := resolve.Resolve(new(mvcc.Lookup), e, k, 7, true, ts)
	if resolve := propose(resolve.List, err); len(resolve) != 2 || !resolve[0].Tombstone {
		t.Fatalf("resolve = %v, want the intent's tombstone and the committed version", resolve)
	}
	if v, ok, err := mvcc.Get(e, k, hlc.Timestamp{WallTime: 20}, 0); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get after commit = %q, %v, %v", v, ok, err)
	}
	if _, err := decodeCommand(nil, []byte("garbage")); err == nil {
		t.Fatal("garbage command should fail to decode")
	}
}

func TestDecodeCommandRejectsMalformedInput(t *testing.T) {
	golden := mustHex(t, goldenCommandHex)
	for cut := 0; cut < len(golden); cut++ {
		if ents, err := decodeCommand(nil, golden[:cut]); err == nil {
			t.Errorf("command truncated to %d of %d bytes decoded to %v", cut, len(golden), ents)
		}
	}
	// One well-formed entry to damage: put "k" -> "v".
	const one = "01" + "00" + "016b" + "0176"
	if _, err := decodeCommand(nil, mustHex(t, one)); err != nil {
		t.Fatalf("the undamaged entry: %v", err)
	}
	for name, in := range map[string]string{
		"trailing byte":            one + "00",
		"tombstone out of range":   "01" + "02" + one[4:],
		"count beyond input":       "02" + one[2:],
		"count near 2^64":          "ffffffffffffffffff01" + one[2:],
		"key longer than input":    "01" + "00" + "7f6b" + "0176",
		"value longer than input":  "01" + "00" + "016b" + "0276",
		"value length near 2^64":   "01" + "00" + "016b" + "ffffffffffffffffff01",
		"unterminated key length":  "01" + "00" + "80808080",
		"unterminated count":       "80",
		"entry missing its value":  "01" + "00" + "016b",
		"second entry beyond end":  "02" + one[2:] + "00",
		"no entry after the count": "01",
	} {
		if ents, err := decodeCommand(nil, mustHex(t, in)); err == nil {
			t.Errorf("%s (%s) decoded to %v", name, in, ents)
		}
	}
}

// FuzzDecodeCommand: no input makes the decoder panic, and whatever decodes
// re-encodes to bytes that decode to the same entries.
func FuzzDecodeCommand(f *testing.F) {
	f.Add(mustHex(f, goldenCommandHex))
	f.Add(mustHex(f, "01"+"01"+"016b"+"0176")) // a tombstone carrying a value
	f.Add([]byte{0})
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, in []byte) {
		ents, err := decodeCommand(nil, in)
		if err != nil {
			return
		}
		enc := encodeCommand(ents)
		again, err := decodeCommand(nil, enc)
		if err != nil {
			t.Fatalf("re-encoding of %x does not decode: %v (%x)", in, err, enc)
		}
		if !sameEntries(again, ents) {
			t.Fatalf("%x decodes to %v, its re-encoding to %v", in, ents, again)
		}
	})
}
