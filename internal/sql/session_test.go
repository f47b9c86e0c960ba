package sql

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// goldenSession and goldenSessionHex fix the session snapshot format that
// one SQL node hands another through the proxy during migration. A diff here
// is a format change: nodes on either side of it could not migrate sessions
// to each other.
var goldenSession = &SerializedSession{
	User:         "app",
	Settings:     map[string]string{"tz": "utc", "app": "x"},
	Prepared:     map[string]string{"q": "SELECT 1"},
	RevivalToken: "ab",
}

const goldenSessionHex = "03617070" + // user "app"
	"02" + "03617070" + "0178" + "02747a" + "03757463" + // settings, keys ascending: app=x, tz=utc
	"01" + "0171" + "0853454c4543542031" + // prepared: q="SELECT 1"
	"026162" // revival token "ab"

func TestSessionSnapshotGolden(t *testing.T) {
	want := mustHex(t, goldenSessionHex)
	if got := goldenSession.Encode(); !bytes.Equal(got, want) {
		t.Fatalf("encoded session\n got %x\nwant %x", got, want)
	}
	got, err := DecodeSerializedSession(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, goldenSession) {
		t.Fatalf("decoded session = %+v", got)
	}
}

// Map iteration order is random, so the encoder sorts: the same session
// encodes to the same bytes every time.
func TestSessionSnapshotEncodingIsDeterministic(t *testing.T) {
	ss := &SerializedSession{User: "u", Settings: map[string]string{}, Prepared: map[string]string{}}
	for i := 0; i < 50; i++ {
		ss.Settings[fmt.Sprintf("s%02d", i)] = fmt.Sprint(i)
		ss.Prepared[fmt.Sprintf("p%02d", i)] = fmt.Sprintf("SELECT %d", i)
	}
	first := ss.Encode()
	for i := 0; i < 10; i++ {
		if again := ss.Encode(); !bytes.Equal(again, first) {
			t.Fatalf("encoding %d differs from the first", i)
		}
	}
}

func TestDecodeSessionSnapshotRejectsMalformedInput(t *testing.T) {
	golden := mustHex(t, goldenSessionHex)
	for cut := 0; cut < len(golden); cut++ {
		if ss, err := DecodeSerializedSession(golden[:cut]); err == nil {
			t.Errorf("snapshot truncated to %d of %d bytes decoded to %+v", cut, len(golden), ss)
		}
	}
	for name, in := range map[string]string{
		"trailing byte":             goldenSessionHex + "00",
		"settings out of order":     "00" + "02" + "0162" + "00" + "0161" + "00" + "00" + "00",
		"repeated setting":          "00" + "02" + "0161" + "00" + "0161" + "00" + "00" + "00",
		"settings count near 2^64":  "00" + "ffffffffffffffffff01",
		"prepared beyond input":     "00" + "00" + "05" + "0171" + "00",
		"user longer than input":    "7f617070",
		"token length near 2^64":    "00" + "00" + "00" + "ffffffffffffffffff01",
		"unterminated settings map": "00" + "80",
	} {
		if ss, err := DecodeSerializedSession(mustHex(t, in)); err == nil {
			t.Errorf("%s (%s) decoded to %+v", name, in, ss)
		}
	}
}

// FuzzDecodeSerializedSession: no input makes the decoder panic, and whatever
// decodes re-encodes to bytes that decode to the same snapshot.
func FuzzDecodeSerializedSession(f *testing.F) {
	f.Add(mustHex(f, goldenSessionHex))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, in []byte) {
		ss, err := DecodeSerializedSession(in)
		if err != nil {
			return
		}
		enc := ss.Encode()
		again, err := DecodeSerializedSession(enc)
		if err != nil {
			t.Fatalf("re-encoding of %x does not decode: %v (%x)", in, err, enc)
		}
		if !reflect.DeepEqual(again, ss) {
			t.Fatalf("%x decodes to %+v, its re-encoding to %+v", in, ss, again)
		}
	})
}

// heldBytes returns the path of the first byte slice, or the first
// non-empty map, that v holds: through structs and arrays, and slices up to
// their capacity. It does not follow pointers or interfaces, so a
// transaction's coordinator is not searched. "" means v holds no bytes.
func heldBytes(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := heldBytes(v.Field(i), path+"."+v.Type().Field(i).Name); p != "" {
				return p
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p := heldBytes(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); p != "" {
				return p
			}
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			if !v.IsNil() {
				return path
			}
			return ""
		}
		all := v.Slice(0, v.Cap())
		for i := 0; i < all.Len(); i++ {
			if p := heldBytes(all.Index(i), fmt.Sprintf("%s[%d]", path, i)); p != "" {
				return p
			}
		}
	case reflect.Map:
		if v.Len() > 0 {
			return path
		}
	}
	return ""
}

// A session's explicit transactions begin in its transaction slot, which
// keeps their arrays from one to the next. Once COMMIT or ROLLBACK ends
// one, the slot holds no key or value: an idle connection pins none.
func TestTxnSlotHoldsNothingAfterCommitOrRollback(t *testing.T) {
	_, s := newTestDB(t)
	loadLineitem(t, s, 3)
	slot := reflect.ValueOf(&s.slot).Elem()
	for i, end := range []string{"COMMIT", "ROLLBACK", "COMMIT"} {
		mustExec(t, s, "BEGIN")
		row := lineitemRow(10 + i)
		mustExec(t, s, "INSERT INTO lineitem VALUES ($1, $2, $3, $4, $5, $6)", row...)
		mustExec(t, s, "UPDATE lineitem SET l_quantity = l_quantity + 1 WHERE l_key = $1", DInt(2))
		mustExec(t, s, "SELECT l_price FROM lineitem WHERE l_key = $1", DInt(2))
		if p := heldBytes(slot, "slot"); p == "" {
			t.Fatal("an open transaction's slot holds no bytes: the check sees nothing")
		}
		mustExec(t, s, end)
		if p := heldBytes(slot, "slot"); p != "" {
			t.Fatalf("after %s the transaction slot still holds %s", end, p)
		}
	}
	if res := mustExec(t, s, "SELECT l_key FROM lineitem"); len(res.Rows) != 5 {
		t.Fatalf("%d rows after two committed inserts into 3, want 5", len(res.Rows))
	}
}
