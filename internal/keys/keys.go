// Package keys defines the logical keyspace of the cluster: order-preserving
// encodings, the tenant prefix scheme that implements keyspace virtualization
// (§3.2.1, Fig 2 of the paper), and the table/index key layout used by the
// SQL layer.
//
// Layout of the global keyspace, in order:
//
//	/Min
//	/Meta/...                     range-addressing metadata (the META range)
//	/Tenant/<id>/...              one contiguous segment per tenant
//	/Max
//
// Within a tenant's segment the SQL layer lays out data as
// /Tenant/<id>/Table/<tableID>/Index/<indexID>/<datums...>.
package keys

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Key is a byte string in the global keyspace. Keys order lexicographically.
type Key []byte

// Prefix bytes carving up the top level of the keyspace.
const (
	metaPrefixByte   = 0x02
	tenantPrefixByte = 0xfe
	maxByte          = 0xff
)

// MinKey is the smallest possible key.
var MinKey = Key{}

// MaxKey is a key greater than every valid key.
var MaxKey = Key{maxByte, maxByte}

// MetaPrefix is the prefix of the META (range addressing) keyspace.
var MetaPrefix = Key{metaPrefixByte}

// TenantID identifies a virtual cluster. The system tenant is TenantID 1 and
// has heightened privileges (§3.2.4).
type TenantID uint64

// SystemTenantID is the ID of the system tenant.
const SystemTenantID TenantID = 1

// IsSystem reports whether the tenant is the system tenant.
func (t TenantID) IsSystem() bool { return t == SystemTenantID }

// IsValid reports whether the ID identifies a real tenant (IDs start at 1).
func (t TenantID) IsValid() bool { return t >= 1 }

// String implements fmt.Stringer.
func (t TenantID) String() string { return fmt.Sprintf("tenant-%d", uint64(t)) }

// MakeTenantPrefix returns the key prefix that bounds the tenant's segment of
// the keyspace. All of the tenant's data lives in
// [MakeTenantPrefix(id), MakeTenantPrefix(id).PrefixEnd()).
func MakeTenantPrefix(id TenantID) Key {
	return appendTenantPrefix(make(Key, 0, tenantPrefixLen), id)
}

// tenantPrefixLen is the length of a tenant prefix: its marker byte, then
// the ID as 8 bytes big-endian.
const tenantPrefixLen = 1 + 8

func appendTenantPrefix(b Key, id TenantID) Key {
	return EncodeUint64(append(b, tenantPrefixByte), uint64(id))
}

// MakeTenantSpan returns the span covering the whole tenant keyspace.
func MakeTenantSpan(id TenantID) Span {
	p := MakeTenantPrefix(id)
	return Span{Key: p, EndKey: p.PrefixEnd()}
}

// TenantSpanContains reports whether s lies within MakeTenantSpan(id): its
// key, and its end when it has one. When s does not, outside is the first of
// the two that falls outside the tenant's span. The span's bounds are built
// on the stack, so a check allocates nothing.
func TenantSpanContains(id TenantID, s Span) (outside Key, ok bool) {
	var buf [tenantPrefixLen]byte
	p := appendTenantPrefix(buf[:0], id)
	// The keys of [p, p.PrefixEnd()) are exactly those that begin with p.
	if !bytes.HasPrefix(s.Key, p) {
		return s.Key, false
	}
	if s.IsPoint() {
		return nil, true
	}
	// p.PrefixEnd() in place: the last byte below 0xff plus one, and the
	// 0xff bytes behind it dropped. The marker byte is below 0xff.
	i := len(p) - 1
	for p[i] == maxByte {
		i--
	}
	p[i]++
	if bytes.Compare(s.EndKey, p[:i+1]) > 0 {
		return s.EndKey, false
	}
	return nil, true
}

// DecodeTenantPrefix extracts the tenant ID from a key that carries a tenant
// prefix. It returns the remainder of the key after the prefix. Keys outside
// any tenant segment (e.g. META keys) return ok=false.
func DecodeTenantPrefix(k Key) (id TenantID, rest Key, ok bool) {
	if len(k) < 1+8 || k[0] != tenantPrefixByte {
		return 0, nil, false
	}
	v := binary.BigEndian.Uint64(k[1 : 1+8])
	return TenantID(v), k[1+8:], true
}

// Next returns the smallest key strictly greater than k.
func (k Key) Next() Key {
	out := make(Key, len(k)+1)
	copy(out, k)
	return out
}

// PrefixEnd returns the smallest key that does not have k as a prefix, i.e.
// the exclusive end of the span of keys prefixed by k. For a key of all 0xff
// bytes (or an empty key), MaxKey is returned.
func (k Key) PrefixEnd() Key {
	if len(k) == 0 {
		return MaxKey
	}
	out := append(Key(nil), k...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xff {
			out[i]++
			return out[:i+1]
		}
	}
	return append(Key(nil), MaxKey...)
}

// Equal reports byte equality.
func (k Key) Equal(o Key) bool { return bytes.Equal(k, o) }

// Less reports whether k sorts before o.
func (k Key) Less(o Key) bool { return bytes.Compare(k, o) < 0 }

// Clone returns a copy of k.
func (k Key) Clone() Key { return append(Key(nil), k...) }

// String renders the key, decoding a tenant prefix when present.
func (k Key) String() string {
	if len(k) == 0 {
		return "/Min"
	}
	if k.Equal(MaxKey) {
		return "/Max"
	}
	if id, rest, ok := DecodeTenantPrefix(k); ok {
		return fmt.Sprintf("/Tenant/%d/%q", uint64(id), []byte(rest))
	}
	if k[0] == metaPrefixByte {
		return fmt.Sprintf("/Meta/%q", []byte(k[1:]))
	}
	return fmt.Sprintf("/%q", []byte(k))
}

// Span is a half-open key interval [Key, EndKey).
type Span struct {
	Key    Key
	EndKey Key
}

// IsPoint reports whether the span addresses a single key.
func (s Span) IsPoint() bool { return len(s.EndKey) == 0 }

// ContainsKey reports whether k falls inside the span.
func (s Span) ContainsKey(k Key) bool {
	if s.IsPoint() {
		return s.Key.Equal(k)
	}
	return !k.Less(s.Key) && k.Less(s.EndKey)
}

// Overlaps reports whether the two spans share any key.
func (s Span) Overlaps(o Span) bool {
	se, oe := s.EndKey, o.EndKey
	if s.IsPoint() {
		se = s.Key.Next()
	}
	if o.IsPoint() {
		oe = o.Key.Next()
	}
	return s.Key.Less(oe) && o.Key.Less(se)
}

// String implements fmt.Stringer.
func (s Span) String() string {
	if s.IsPoint() {
		return s.Key.String()
	}
	return fmt.Sprintf("[%s, %s)", s.Key, s.EndKey)
}
