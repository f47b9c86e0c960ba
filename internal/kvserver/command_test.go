package kvserver

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"crdbserverless/internal/hlc"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/randutil"
)

// goldenCommand and goldenCommandHex fix the replicated command format. A
// diff here is a format change: replicas on either side of it could not apply
// each other's raft entries.
var goldenCommand = command{Mutations: []mutation{
	{Kind: mutPut, Key: keys.Key("a"), Ts: hlc.Timestamp{WallTime: 1000, Logical: 2}, TxnID: 7, Value: []byte("v1")},
	{Kind: mutDelete, Key: keys.Key("bc"), Ts: hlc.Timestamp{WallTime: 1001}},
	{Kind: mutResolve, Key: keys.Key("a"), TxnID: 300, Value: []byte{}, Commit: true, CommitTs: hlc.Timestamp{WallTime: 1002, Logical: 1}},
}}

const goldenCommandHex = "03" + // three mutations
	// put "a" @1000.2 by txn 7, value "v1"
	"00" + "0161" + "00000000000003e8" + "00000002" + "07" + "037631" + "00" + "0000000000000000" + "00000000" +
	// delete "bc" @1001.0, no txn, nil value
	"01" + "026263" + "00000000000003e9" + "00000000" + "00" + "00" + "00" + "0000000000000000" + "00000000" +
	// resolve "a" for txn 300: commit @1002.1; the value is empty, not nil
	"02" + "0161" + "0000000000000000" + "00000000" + "ac02" + "01" + "01" + "00000000000003ea" + "00000001"

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCommandGolden(t *testing.T) {
	want := mustHex(t, goldenCommandHex)
	if got := encodeCommand(goldenCommand); !bytes.Equal(got, want) {
		t.Fatalf("encoded command\n got %x\nwant %x", got, want)
	}
	got, err := decodeCommand(want)
	if err != nil {
		t.Fatal(err)
	}
	// DeepEqual tells a nil Value from an empty one, which is the point.
	if !reflect.DeepEqual(got, goldenCommand) {
		t.Fatalf("decoded command = %+v", got)
	}
}

// The raft entry is shared by every replica and stays in the log; a decoded
// command must not point into it.
func TestDecodedCommandDoesNotAliasTheEntry(t *testing.T) {
	entry := mustHex(t, goldenCommandHex)
	got, err := decodeCommand(entry)
	if err != nil {
		t.Fatal(err)
	}
	for i := range entry {
		entry[i] = 0xff
	}
	if !reflect.DeepEqual(got, goldenCommand) {
		t.Fatalf("overwriting the entry changed the decoded command: %+v", got)
	}
}

func TestCommandRandomRoundTrip(t *testing.T) {
	rng := randutil.NewRand(18)
	randTs := func() hlc.Timestamp {
		return hlc.Timestamp{WallTime: rng.Int63() >> uint(rng.Intn(63)), Logical: int32(rng.Intn(1 << 20))}
	}
	for i := 0; i < 1000; i++ {
		c := command{Mutations: make([]mutation, rng.Intn(8))}
		for j := range c.Mutations {
			m := mutation{
				Kind:     mutationKind(rng.Intn(3)),
				Key:      keys.Key(randutil.RandBytes(rng, rng.Intn(30))),
				Ts:       randTs(),
				TxnID:    rng.Uint64() >> uint(rng.Intn(64)),
				Commit:   rng.Intn(2) == 1,
				CommitTs: randTs(),
			}
			if n := rng.Intn(200); n > 0 {
				m.Value = randutil.RandBytes(rng, n-1)
			}
			c.Mutations[j] = m
		}
		got, err := decodeCommand(encodeCommand(c))
		if err != nil {
			t.Fatalf("command %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("command %d round trip\n got %+v\nwant %+v", i, got, c)
		}
	}
}

func TestDecodeCommandRejectsMalformedInput(t *testing.T) {
	golden := mustHex(t, goldenCommandHex)
	for cut := 0; cut < len(golden); cut++ {
		if c, err := decodeCommand(golden[:cut]); err == nil {
			t.Errorf("command truncated to %d of %d bytes decoded to %+v", cut, len(golden), c)
		}
	}
	// One well-formed mutation to damage: put "k" with a nil value.
	const one = "01" + "00" + "016b" + "0000000000000001" + "00000000" + "00" + "00" + "00" + "0000000000000000" + "00000000"
	if _, err := decodeCommand(mustHex(t, one)); err != nil {
		t.Fatalf("the undamaged mutation: %v", err)
	}
	for name, in := range map[string]string{
		"trailing byte":          one + "00",
		"unknown kind":           "01" + "03" + one[4:],
		"commit out of range":    one[:len(one)-26] + "02" + one[len(one)-24:],
		"count beyond input":     "02" + one[2:],
		"count near 2^64":        "ffffffffffffffffff01" + one[2:],
		"key longer than input":  "01" + "00" + "7f6b" + one[8:],
		"value length near 2^64": "01" + "00" + "016b" + "0000000000000001" + "00000000" + "00" + "ffffffffffffffffff01",
	} {
		if c, err := decodeCommand(mustHex(t, in)); err == nil {
			t.Errorf("%s (%s) decoded to %+v", name, in, c)
		}
	}
}

// FuzzDecodeCommand: no input makes the decoder panic, and whatever decodes
// re-encodes to bytes that decode to the same command.
func FuzzDecodeCommand(f *testing.F) {
	f.Add(mustHex(f, goldenCommandHex))
	f.Add([]byte{0})
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, in []byte) {
		c, err := decodeCommand(in)
		if err != nil {
			return
		}
		enc := encodeCommand(c)
		again, err := decodeCommand(enc)
		if err != nil {
			t.Fatalf("re-encoding of %x does not decode: %v (%x)", in, err, enc)
		}
		if !reflect.DeepEqual(again, c) {
			t.Fatalf("%x decodes to %+v, its re-encoding to %+v", in, c, again)
		}
	})
}
