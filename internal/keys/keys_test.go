package keys

import (
	"bytes"
	"sort"
	"testing"
	"testing/quick"
)

func TestTenantPrefixRoundTrip(t *testing.T) {
	for _, id := range []TenantID{1, 2, 10, 12345, 1 << 40} {
		p := MakeTenantPrefix(id)
		got, rest, ok := DecodeTenantPrefix(p)
		if !ok || got != id || len(rest) != 0 {
			t.Fatalf("round trip %d: got %d rest %q ok %v", id, got, rest, ok)
		}
	}
}

func TestTenantPrefixOrdering(t *testing.T) {
	// Tenant segments must be contiguous and ordered by ID so that no two
	// tenants can share a range (§3.2.1).
	var prev Key
	for id := TenantID(1); id < 100; id++ {
		p := MakeTenantPrefix(id)
		if prev != nil && !prev.Less(p) {
			t.Fatalf("tenant %d prefix does not sort after tenant %d", id, id-1)
		}
		// The previous tenant's span must end at or before this prefix.
		if prev != nil {
			end := prev.PrefixEnd()
			if p.Less(end) {
				t.Fatalf("tenant %d span overlaps tenant %d prefix", id-1, id)
			}
		}
		prev = p
	}
}

func TestTenantSpanContainsOwnKeysOnly(t *testing.T) {
	s1 := MakeTenantSpan(5)
	s2 := MakeTenantSpan(6)
	k := append(MakeTenantPrefix(5), []byte("table1row")...)
	if !s1.ContainsKey(k) {
		t.Fatal("tenant span should contain its own key")
	}
	if s2.ContainsKey(k) {
		t.Fatal("tenant 6 span must not contain tenant 5 key")
	}
	if s1.Overlaps(s2) {
		t.Fatal("tenant spans must not overlap")
	}
}

func TestDecodeTenantPrefixRejectsOther(t *testing.T) {
	if _, _, ok := DecodeTenantPrefix(MetaPrefix); ok {
		t.Fatal("meta key should not decode as tenant")
	}
	if _, _, ok := DecodeTenantPrefix(Key{tenantPrefixByte, 1, 2}); ok {
		t.Fatal("truncated tenant key should not decode")
	}
	if _, _, ok := DecodeTenantPrefix(nil); ok {
		t.Fatal("empty key should not decode")
	}
}

func TestKeyNext(t *testing.T) {
	k := Key("abc")
	n := k.Next()
	if !k.Less(n) {
		t.Fatal("Next not greater")
	}
	// Nothing sorts strictly between k and k.Next().
	if between := Key("abc\x00"); !between.Equal(n) {
		t.Fatalf("Next = %q", n)
	}
}

func TestPrefixEnd(t *testing.T) {
	cases := []struct {
		in, want Key
	}{
		{Key("a"), Key("b")},
		{Key("ab"), Key("ac")},
		{Key{0x01, 0xff}, Key{0x02}},
		{Key{0xff, 0xff}, MaxKey},
		{Key{}, MaxKey},
	}
	for _, c := range cases {
		if got := c.in.PrefixEnd(); !got.Equal(c.want) {
			t.Fatalf("PrefixEnd(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPrefixEndProperty(t *testing.T) {
	// Property: any key with prefix p sorts before p.PrefixEnd().
	f := func(prefix, suffix []byte) bool {
		if len(prefix) == 0 {
			return true
		}
		p := Key(prefix)
		k := append(p.Clone(), suffix...)
		end := p.PrefixEnd()
		return k.Less(end) || end.Equal(MaxKey)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSpanBasics(t *testing.T) {
	s := Span{Key: Key("b"), EndKey: Key("d")}
	if !s.ContainsKey(Key("b")) || !s.ContainsKey(Key("c")) {
		t.Fatal("span should contain b and c")
	}
	if s.ContainsKey(Key("d")) || s.ContainsKey(Key("a")) {
		t.Fatal("span end is exclusive; start is inclusive")
	}
	point := Span{Key: Key("x")}
	if !point.IsPoint() || !point.ContainsKey(Key("x")) || point.ContainsKey(Key("y")) {
		t.Fatal("point span behavior")
	}
}

func TestSpanContainsAndOverlaps(t *testing.T) {
	outer := Span{Key: Key("b"), EndKey: Key("z")}
	inner := Span{Key: Key("c"), EndKey: Key("f")}
	if !outer.ContainsKey(inner.Key) || inner.ContainsKey(outer.Key) {
		t.Fatal("ContainsKey broken")
	}
	if !outer.Overlaps(inner) || !inner.Overlaps(outer) {
		t.Fatal("Overlaps broken")
	}
	disjoint := Span{Key: Key("z"), EndKey: Key("zz")}
	if outer.Overlaps(disjoint) {
		t.Fatal("adjacent spans should not overlap (end exclusive)")
	}
	p := Span{Key: Key("c")}
	if !outer.ContainsKey(p.Key) || !outer.Overlaps(p) {
		t.Fatal("point containment broken")
	}
}

func TestKeyString(t *testing.T) {
	if MinKey.String() != "/Min" {
		t.Fatalf("MinKey = %s", MinKey)
	}
	if MaxKey.String() != "/Max" {
		t.Fatalf("MaxKey = %s", MaxKey)
	}
	k := MakeTenantPrefix(7)
	if got := k.String(); got != `/Tenant/7/""` {
		t.Fatalf("tenant key string = %s", got)
	}
}

func TestUint64EncodingOrder(t *testing.T) {
	f := func(a, b uint64) bool {
		ka := EncodeUint64(nil, a)
		kb := EncodeUint64(nil, b)
		cmp := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInt64EncodingOrderAndRoundTrip(t *testing.T) {
	f := func(a, b int64) bool {
		ka := EncodeInt64(nil, a)
		kb := EncodeInt64(nil, b)
		if (a < b) != (bytes.Compare(ka, kb) < 0) {
			return false
		}
		rest, got, err := DecodeInt64(ka)
		return err == nil && got == a && len(rest) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBytesEncodingRoundTrip(t *testing.T) {
	f := func(data, tail []byte) bool {
		enc := EncodeBytes(nil, data)
		enc = append(enc, tail...)
		rest, got, err := DecodeBytes(enc)
		return err == nil && bytes.Equal(got, data) && bytes.Equal(rest, tail)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestBytesEncodingOrder(t *testing.T) {
	f := func(a, b []byte) bool {
		ka := EncodeBytes(nil, a)
		kb := EncodeBytes(nil, b)
		return (bytes.Compare(a, b) < 0) == (bytes.Compare(ka, kb) < 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestBytesEncodingEmbeddedZeros(t *testing.T) {
	in := []byte{0x00, 0x01, 0x00, 0x00, 0xff}
	enc := EncodeBytes(nil, in)
	_, out, err := DecodeBytes(enc)
	if err != nil || !bytes.Equal(in, out) {
		t.Fatalf("round trip with zeros: %v %q", err, out)
	}
}

// AppendDecodeBytes behind a non-empty dst appends what DecodeBytes returns
// and leaves the prefix alone; on error it hands dst back as it was.
// DecodedBytesLen predicts the length decoded.
func TestAppendDecodeBytes(t *testing.T) {
	f := func(prefix, data, tail []byte) bool {
		if DecodedBytesLen(EncodeBytes(nil, data)) != len(data) {
			return false
		}
		enc := append(EncodeBytes(nil, data), tail...)
		wantRest, want, err := DecodeBytes(enc)
		if err != nil {
			return false
		}
		dst := append([]byte(nil), prefix...)
		rest, got, err := AppendDecodeBytes(dst, enc)
		return err == nil && bytes.Equal(got[:len(prefix)], prefix) &&
			bytes.Equal(got[len(prefix):], want) && bytes.Equal(rest, wantRest)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Key{{0x99}, {bytesMarker, 'a'}, {bytesMarker, 'a', 0x00}, {bytesMarker, 'a', 0x00, 0x55}} {
		dst := []byte("keep")
		if _, got, err := AppendDecodeBytes(dst, bad); err == nil || string(got) != "keep" {
			t.Errorf("AppendDecodeBytes(%x) = %q, %v; want \"keep\" and an error", bad, got, err)
		}
	}
}

func TestDecodeBytesErrors(t *testing.T) {
	if _, _, err := DecodeBytes(Key{0x99}); err == nil {
		t.Fatal("bad marker should error")
	}
	if _, _, err := DecodeBytes(Key{bytesMarker, 'a'}); err == nil {
		t.Fatal("unterminated should error")
	}
	if _, _, err := DecodeBytes(Key{bytesMarker, 0x00}); err == nil {
		t.Fatal("truncated escape should error")
	}
	if _, _, err := DecodeBytes(Key{bytesMarker, 0x00, 0x55}); err == nil {
		t.Fatal("invalid escape should error")
	}
	if _, _, err := DecodeUint64(Key{1, 2}); err == nil {
		t.Fatal("short uint64 should error")
	}
}

func TestStringEncoding(t *testing.T) {
	enc := EncodeString(nil, "hello")
	rest, s, err := DecodeString(enc)
	if err != nil || s != "hello" || len(rest) != 0 {
		t.Fatalf("string round trip: %v %q", err, s)
	}
	if _, _, err := DecodeString(Key{0x99}); err == nil {
		t.Fatal("bad string should error")
	}
}

func TestTableIndexPrefix(t *testing.T) {
	k := MakeTableIndexPrefix(3, 50, 1)
	tenant, rest, ok := DecodeTenantPrefix(append(k, 'x'))
	if !ok {
		t.Fatal("table key lacks its tenant prefix")
	}
	rest, table, err := DecodeUint64(rest)
	if err != nil {
		t.Fatal(err)
	}
	rest, index, err := DecodeUint64(rest)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != 3 || table != 50 || index != 1 || string(rest) != "x" {
		t.Fatalf("decoded %d %d %d %q", tenant, table, index, rest)
	}
}

// keySink keeps a built key on the heap, as a caller that keeps it does.
var keySink Key

// Each prefix builder allocates once.
func TestPrefixBuildersAllocateOnce(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { keySink = MakeTableIndexPrefix(3, 50, 1) }); n != 1 {
		t.Errorf("MakeTableIndexPrefix makes %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { keySink = MakeTenantPrefix(3) }); n != 1 {
		t.Errorf("MakeTenantPrefix makes %v allocations, want 1", n)
	}
}

// A table's prefix is the one every index prefix of it starts with, and the
// next table's prefix lies past the table's whole span: DROP TABLE deletes
// that span.
func TestTablePrefixCoversEveryIndex(t *testing.T) {
	p := MakeTablePrefix(3, 50)
	if len(p) != cap(p) {
		t.Errorf("MakeTablePrefix has %d bytes and capacity %d", len(p), cap(p))
	}
	span := Span{Key: p, EndKey: p.PrefixEnd()}
	for _, idx := range []IndexID{PrimaryIndexID, 2, 1<<32 - 1} {
		ip := MakeTableIndexPrefix(3, 50, idx)
		if !bytes.HasPrefix(ip, p) || !span.ContainsKey(ip) || !span.ContainsKey(append(ip, 0xff, 0xff)) {
			t.Errorf("index %d prefix %x is not inside table span %v", idx, ip, span)
		}
	}
	for _, other := range []Key{MakeTablePrefix(3, 51), MakeTableIndexPrefix(3, 49, 7), MakeTablePrefix(4, 50)} {
		if span.ContainsKey(other) {
			t.Errorf("table span %v contains %x", span, other)
		}
	}
	if n := testing.AllocsPerRun(100, func() { keySink = MakeTablePrefix(3, 50) }); n != 1 {
		t.Errorf("MakeTablePrefix makes %v allocations, want 1", n)
	}
}

// TenantSpanContains agrees with MakeTenantSpan's bounds, the end's carry
// over 0xff bytes included, at and around both bounds.
func TestTenantSpanContains(t *testing.T) {
	for _, id := range []TenantID{2, 5, 0xff, 0x1ff, 0xffff, 1<<56 - 1} {
		span := MakeTenantSpan(id)
		below := MakeTenantPrefix(id - 1)
		keysAround := []Key{span.Key, append(span.Key.Clone(), 'x'), span.EndKey, span.EndKey.Next(),
			below, append(below.Clone(), 0xff, 0xff), Key(span.Key[:len(span.Key)-1]), MaxKey}
		for _, k := range keysAround {
			outside, ok := TenantSpanContains(id, Span{Key: k})
			if want := span.ContainsKey(k); ok != want || (!ok && !outside.Equal(k)) {
				t.Errorf("tenant %d, key %x: contained %v (outside %x), want %v", id, k, ok, outside, want)
			}
			for _, end := range keysAround {
				s := Span{Key: k, EndKey: end}
				outside, ok := TenantSpanContains(id, s)
				var want Key
				switch {
				case !span.ContainsKey(k):
					want = k
				case span.EndKey.Less(end):
					want = end
				}
				if ok != (want == nil) || !outside.Equal(want) {
					t.Errorf("tenant %d, span %s: contained %v (outside %x), want outside %x", id, s, ok, outside, want)
				}
			}
		}
		if n := testing.AllocsPerRun(10, func() { TenantSpanContains(id, span) }); n != 0 {
			t.Errorf("TenantSpanContains makes %v allocations", n)
		}
	}
}

func TestTableIndexSpanOrdering(t *testing.T) {
	// Index spans within a table are disjoint and ordered.
	spans := []Span{
		MakeTableIndexSpan(1, 10, 1),
		MakeTableIndexSpan(1, 10, 2),
		MakeTableIndexSpan(1, 11, 1),
		MakeTableIndexSpan(2, 10, 1),
	}
	sorted := sort.SliceIsSorted(spans, func(i, j int) bool {
		return spans[i].Key.Less(spans[j].Key)
	})
	if !sorted {
		t.Fatal("index spans not ordered by (tenant, table, index)")
	}
	for i := 0; i < len(spans); i++ {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].Overlaps(spans[j]) {
				t.Fatalf("spans %d and %d overlap", i, j)
			}
		}
	}
}
