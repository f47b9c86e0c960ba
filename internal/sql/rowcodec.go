package sql

import (
	"encoding/binary"
	"fmt"

	"crdbserverless/internal/binenc"
	"crdbserverless/internal/keys"
)

// Row layout in the KV keyspace (§3.1: "SQL schema metadata and individual
// table accesses are translated by the SQL layer into basic KV operations"):
//
//	primary:   /Tenant/<t>/Table/<id>/Index/1/<pk datums>      -> uvarint ncols, then each datum (AppendDatum)
//	secondary: /Tenant/<t>/Table/<id>/Index/<n>/<idx datums><pk datums> -> empty

// primaryKey builds a row's primary index key.
func primaryKey(tenant keys.TenantID, desc *TableDescriptor, row []Datum) (keys.Key, error) {
	k := keys.MakeTableIndexPrefix(tenant, desc.ID, keys.PrimaryIndexID)
	for _, pkIdx := range desc.PrimaryKey {
		if pkIdx >= len(row) {
			return nil, fmt.Errorf("sql: row too short for primary key of %s", desc.Name)
		}
		if row[pkIdx].Null {
			return nil, fmt.Errorf("sql: NULL in primary key of %s", desc.Name)
		}
		k = encodeDatumKey(k, row[pkIdx])
	}
	return k, nil
}

// primaryKeyFromValues builds a primary key from just the PK datums (for
// point lookups planned from WHERE clauses).
func primaryKeyFromValues(tenant keys.TenantID, desc *TableDescriptor, pkVals []Datum) keys.Key {
	k := keys.MakeTableIndexPrefix(tenant, desc.ID, keys.PrimaryIndexID)
	for _, d := range pkVals {
		k = encodeDatumKey(k, d)
	}
	return k
}

// tableSpan covers the table's primary index.
func tableSpan(tenant keys.TenantID, desc *TableDescriptor) keys.Span {
	return keys.MakeTableIndexSpan(tenant, desc.ID, keys.PrimaryIndexID)
}

// encodeRowValue serializes the full datum row as the primary index value.
func encodeRowValue(row []Datum) []byte {
	// A tag byte and a short payload per column is the common case; append
	// grows the buffer for wide strings.
	b := make([]byte, 0, 1+9*len(row))
	b = binary.AppendUvarint(b, uint64(len(row)))
	for _, d := range row {
		b = AppendDatum(b, d)
	}
	return b
}

// decodeRowValue deserializes a primary index value. The value comes out of
// the KV layer, so it is decoded as untrusted bytes: a malformed one is an
// error, and the row is allocated only once the column count is known to fit
// (every datum is at least its tag byte).
func decodeRowValue(b []byte) ([]Datum, error) {
	r := binenc.NewReader(b)
	row := make([]Datum, r.Count(1))
	for i := range row {
		row[i] = ConsumeDatum(r)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("sql: decoding row: %w", err)
	}
	return row, nil
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
