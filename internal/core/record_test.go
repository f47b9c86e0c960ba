package core

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"crdbserverless/internal/region"
)

// goldenTenant and goldenTenantHex fix the tenant record format the registry
// persists in the system tenant's keyspace. A diff here is a format change:
// every stored tenant record becomes unreadable.
var goldenTenant = &Tenant{
	ID:          5,
	Name:        "acme",
	Dropped:     true,
	Regions:     []region.Region{"us-east1", "eu-west1"},
	Password:    "pw",
	QuotaVCPUs:  1.5,
	RegionAware: true,
}

const goldenTenantHex = "05" + // ID 5
	"0461636d65" + // name "acme"
	"02" + // dropped
	"02" + "0875732d6561737431" + "0865752d7765737431" + // regions
	"027077" + // password "pw"
	"3ff8000000000000" + // quota 1.5 vCPUs, IEEE 754 bits big-endian
	"01" // region-aware

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTenantRecordGolden(t *testing.T) {
	want := mustHex(t, goldenTenantHex)
	if got := encodeTenant(goldenTenant); !bytes.Equal(got, want) {
		t.Fatalf("encoded tenant\n got %x\nwant %x", got, want)
	}
	got, err := decodeTenant(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, goldenTenant) {
		t.Fatalf("decoded tenant = %+v", got)
	}
	// No regions decode as nil, which is what clone leaves.
	bare := &Tenant{ID: 6, Name: "b"}
	if got, err := decodeTenant(encodeTenant(bare)); err != nil || !reflect.DeepEqual(got, bare.clone()) {
		t.Fatalf("bare tenant round trip = %+v, %v", got, err)
	}
}

func TestDecodeTenantRecordRejectsMalformedInput(t *testing.T) {
	golden := mustHex(t, goldenTenantHex)
	for cut := 0; cut < len(golden); cut++ {
		if ten, err := decodeTenant(golden[:cut]); err == nil {
			t.Errorf("record truncated to %d of %d bytes decoded to %+v", cut, len(golden), ten)
		}
	}
	// ID 1, name "a", active, no regions, no password, no quota, not
	// region-aware.
	const one = "01" + "0161" + "00" + "00" + "00" + "0000000000000000" + "00"
	if _, err := decodeTenant(mustHex(t, one)); err != nil {
		t.Fatalf("the undamaged record: %v", err)
	}
	for name, in := range map[string]string{
		"trailing byte":             one + "00",
		"unknown state":             "01" + "0161" + "03" + one[8:],
		"retired suspended state":   "01" + "0161" + "01" + one[8:],
		"region-aware out of range": one[:len(one)-2] + "02",
		"regions beyond input":      "01" + "0161" + "00" + "7f" + one[10:],
		"regions near 2^64":         "01" + "0161" + "00" + "ffffffffffffffffff01",
		"name longer than input":    "01" + "7f61",
		"quota cut short":           "01" + "0161" + "00" + "00" + "00" + "3ff8",
	} {
		if ten, err := decodeTenant(mustHex(t, in)); err == nil {
			t.Errorf("%s (%s) decoded to %+v", name, in, ten)
		}
	}
}

// FuzzDecodeTenant: no input makes the decoder panic, and whatever
// decodes re-encodes to bytes that decode and encode to the same bytes again
// (bytes, not values: a NaN quota never equals itself).
func FuzzDecodeTenant(f *testing.F) {
	f.Add(mustHex(f, goldenTenantHex))
	f.Add([]byte{0})
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, in []byte) {
		ten, err := decodeTenant(in)
		if err != nil {
			return
		}
		enc := encodeTenant(ten)
		again, err := decodeTenant(enc)
		if err != nil {
			t.Fatalf("re-encoding of %x does not decode: %v (%x)", in, err, enc)
		}
		if enc2 := encodeTenant(again); !bytes.Equal(enc2, enc) {
			t.Fatalf("%x re-encodes to %x, then to %x", in, enc, enc2)
		}
	})
}
