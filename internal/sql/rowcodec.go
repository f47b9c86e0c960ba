package sql

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"crdbserverless/internal/binenc"
	"crdbserverless/internal/keys"
)

// Row layout in the KV keyspace (§3.1: "SQL schema metadata and individual
// table accesses are translated by the SQL layer into basic KV operations"):
//
//	primary:   /Tenant/<t>/Table/<id>/Index/1/<pk datums>      -> uvarint ncols, then each datum (AppendDatum)
//	secondary: /Tenant/<t>/Table/<id>/Index/<n>/<idx datums><pk datums> -> empty

// appendPrimaryKey appends a row's primary index key to dst.
func appendPrimaryKey(dst keys.Key, tenant keys.TenantID, desc *TableDescriptor, row []Datum) (keys.Key, error) {
	var pkBuf [4]Datum
	pkVals := pkBuf[:0]
	for _, pkIdx := range desc.PrimaryKey {
		if pkIdx >= len(row) {
			return dst, fmt.Errorf("sql: row too short for primary key of %s", desc.Name)
		}
		if row[pkIdx].Kind == TypeNull {
			return dst, fmt.Errorf("sql: NULL in primary key of %s", desc.Name)
		}
		pkVals = append(pkVals, row[pkIdx])
	}
	return appendKeyFromValues(dst, tenant, desc, pkVals), nil
}

// appendKeyFromValues appends to dst a primary key built from just the PK
// datums (for point lookups planned from WHERE clauses). A dst without room
// for the key doubles, and a nil one is sized exactly.
func appendKeyFromValues(dst keys.Key, tenant keys.TenantID, desc *TableDescriptor, pkVals []Datum) keys.Key {
	n := keys.TableIndexPrefixLen
	for _, d := range pkVals {
		n += datumKeyLen(d)
	}
	if cap(dst)-len(dst) < n {
		dst = append(make(keys.Key, 0, max(2*cap(dst), len(dst)+n)), dst...)
	}
	k := keys.AppendTableIndexPrefix(dst, tenant, desc.ID, keys.PrimaryIndexID)
	for _, d := range pkVals {
		k = encodeDatumKey(k, d)
	}
	return k
}

// tableSpan covers the table's primary index.
func tableSpan(tenant keys.TenantID, desc *TableDescriptor) keys.Span {
	return keys.MakeTableIndexSpan(tenant, desc.ID, keys.PrimaryIndexID)
}

// appendRowValue appends the full datum row, serialized as the primary
// index value, to b.
func appendRowValue(b []byte, row []Datum) []byte {
	b = binary.AppendUvarint(b, uint64(len(row)))
	for _, d := range row {
		b = AppendDatum(b, d)
	}
	return b
}

// decodeRowValue deserializes a primary index value, appending its datums to
// dst, so a scan decodes every row into one buffer. The value comes out of
// the KV layer, so it is decoded as untrusted bytes: a malformed one is an
// error, and dst grows only once the column count is known to fit (every
// datum is at least its tag byte). On error it returns dst as it was. The
// datums own their bytes: a STRING is copied out of b.
func decodeRowValue(dst []Datum, b []byte) ([]Datum, error) {
	cols, n, ok := openRow(b)
	if !ok {
		return dst, errMalformedRow
	}
	row := slices.Grow(dst, n)
	for range n {
		var d Datum
		if cols, ok = readColumn(cols, &d); !ok {
			return dst, errMalformedRow
		}
		if d.Kind == TypeString {
			// A copy, which unlike strings.Clone costs no allocation for a
			// string of one byte.
			d.S = string(stringBytes(d.S))
		}
		row = append(row, d)
	}
	if len(cols) != 0 {
		return dst, errMalformedRow
	}
	return row, nil
}

// errMalformedRow is the error of a row value that does not decode.
var errMalformedRow = fmt.Errorf("sql: decoding row: %w", binenc.ErrMalformed)

// The row cursor: openRow and readColumn are the one decoder of the row
// format, behind decodeRowValue and the KV node's fold (scanFold.read). They
// check what binenc.Reader checks, so they fail exactly where ConsumeDatum
// would on the same bytes, and read in place: a STRING's S views the row
// value's bytes (unsafe.String), so it is valid only while they do not
// change.

// openRow returns the columns of row value b and their count. It reports
// false unless b begins with a count that the bytes behind it could hold,
// every column being at least its tag byte.
func openRow(b []byte) ([]byte, int, bool) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w) {
		return nil, 0, false
	}
	return b[w:], int(n), true
}

// readColumn reads the column at the front of b into d and returns the
// bytes after it. It reports false when the column is malformed or
// truncated, and then leaves d as it was. A short varint, which most INTs
// and STRING lengths are, takes no loop.
func readColumn(b []byte, d *Datum) ([]byte, bool) {
	if len(b) < 2 {
		// Only a NULL, a tag alone, is shorter than two bytes.
		if len(b) == 1 && b[0] == tagNull {
			*d = DNull
			return b[1:], true
		}
		return nil, false
	}
	switch b[0] {
	case tagNull:
		*d = DNull
		return b[1:], true
	case tagInt:
		// binary.Varint, inline: Uvarint and the zigzag. Keys and dates are
		// often two bytes.
		u, w := uint64(b[1]), 1
		switch {
		case u < 0x80:
		case len(b) > 2 && b[2] < 0x80:
			u, w = u&0x7f|uint64(b[2])<<7, 2
		default:
			if u, w = binary.Uvarint(b[1:]); w <= 0 {
				return nil, false
			}
		}
		*d = DInt(int64(u>>1) ^ -int64(u&1))
		return b[1+w:], true
	case tagFloat:
		if len(b) < 9 {
			return nil, false
		}
		*d = DFloat(math.Float64frombits(binary.BigEndian.Uint64(b[1:9])))
		return b[9:], true
	case tagString:
		n, w := uint64(b[1]), 1
		if n >= 0x80 {
			if n, w = binary.Uvarint(b[1:]); w <= 0 {
				return nil, false
			}
		}
		if n > uint64(len(b)-1-w) {
			return nil, false
		}
		end := 1 + w + int(n)
		*d = DString(unsafe.String(unsafe.SliceData(b[1+w:end]), n))
		return b[end:], true
	case tagBool:
		if b[1] > 1 {
			return nil, false
		}
		*d = Datum{Kind: TypeBool, I: int64(b[1])}
		return b[2:], true
	default:
		return nil, false
	}
}

// indexKey builds a secondary index entry key for a row.
func indexKey(tenant keys.TenantID, desc *TableDescriptor, idx *IndexDescriptor, row []Datum) (keys.Key, error) {
	k := keys.MakeTableIndexPrefix(tenant, desc.ID, idx.ID)
	for _, col := range idx.Columns {
		if col >= len(row) {
			return nil, fmt.Errorf("sql: row too short for index %s", idx.Name)
		}
		k = encodeDatumKey(k, row[col])
	}
	// Append the primary key to make the entry unique and to let index
	// scans recover the row.
	for _, pkIdx := range desc.PrimaryKey {
		k = encodeDatumKey(k, row[pkIdx])
	}
	return k, nil
}

// indexPrefix builds the scan prefix for an index constrained to the given
// leading datum values (may be fewer than the indexed columns).
func indexPrefix(tenant keys.TenantID, desc *TableDescriptor, idx *IndexDescriptor, vals []Datum) keys.Key {
	k := keys.MakeTableIndexPrefix(tenant, desc.ID, idx.ID)
	for _, d := range vals {
		k = encodeDatumKey(k, d)
	}
	return k
}

// decodeIndexKeyPK extracts the primary key datums from a secondary index
// entry key.
func decodeIndexKeyPK(tenant keys.TenantID, desc *TableDescriptor, idx *IndexDescriptor, key keys.Key) ([]Datum, error) {
	prefix := keys.MakeTableIndexPrefix(tenant, desc.ID, idx.ID)
	if len(key) < len(prefix) || !key[:len(prefix)].Equal(prefix) {
		return nil, fmt.Errorf("sql: key not in index %s", idx.Name)
	}
	rest := key[len(prefix):]
	// Skip the indexed datums.
	var err error
	for range idx.Columns {
		rest, _, err = decodeDatumKey(rest)
		if err != nil {
			return nil, err
		}
	}
	// Decode the primary key datums.
	pk := make([]Datum, 0, len(desc.PrimaryKey))
	for range desc.PrimaryKey {
		var d Datum
		rest, d, err = decodeDatumKey(rest)
		if err != nil {
			return nil, err
		}
		pk = append(pk, d)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("sql: trailing bytes in index key")
	}
	return pk, nil
}
