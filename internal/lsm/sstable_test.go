package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"crdbserverless/internal/keys"
)

// modelKeys returns n distinct random keys, sorted, drawn so that runs share
// long prefixes and some keys are prefixes of others: each is built from a
// few fixed stems, a run of zero bytes (the bytes keys.EncodeBytes escapes)
// and a short random tail, and some are cut short.
func modelKeys(rng *rand.Rand, n int) [][]byte {
	stems := [][]byte{nil, []byte("t"), []byte("table/0001/"), bytes.Repeat([]byte{'p'}, 300)}
	seen := map[string]bool{}
	var out [][]byte
	for len(out) < n {
		k := append([]byte(nil), stems[rng.Intn(len(stems))]...)
		k = append(k, make([]byte, rng.Intn(8))...)
		for i := rng.Intn(4); i > 0; i-- {
			k = append(k, byte('a'+rng.Intn(3)))
		}
		if rng.Intn(4) == 0 && len(k) > 0 {
			k = k[:rng.Intn(len(k))]
		}
		if !seen[string(k)] {
			seen[string(k)] = true
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) < 0 })
	return out
}

// modelEntries gives each key an entry: a tombstone, an empty value, a
// small value or one larger than a block, so that blocks range from one
// entry to many.
func modelEntries(rng *rand.Rand, ks [][]byte) []Entry {
	out := make([]Entry, len(ks))
	for i, k := range ks {
		e := Entry{Key: k}
		switch r := rng.Intn(10); {
		case r == 0:
			e.Tombstone = true
		case r == 1:
			e.Value = []byte{}
		case r == 2:
			e.Value = bigVal("v"+string(k), blockTargetBytes+rng.Intn(blockTargetBytes))
		default:
			e.Value = bigVal("v"+string(k), 1+rng.Intn(200))
		}
		out[i] = e
	}
	return out
}

// checkSourceVsModel positions a source over t at random keys, and at the
// start, and steps it against the sorted entries it was built from: every
// key, value and tombstone, and the end of the run, must agree.
func checkSourceVsModel(t *testing.T, rng *rand.Rand, tbl *ssTable, want []Entry, what string) {
	t.Helper()
	it := &Iterator{seq: math.MaxUint64}
	s := &iterSource{tables: []*ssTable{tbl}}
	targets := [][]byte{nil}
	for i := 0; i < 50; i++ {
		k := append([]byte(nil), want[rng.Intn(len(want))].Key...)
		switch rng.Intn(3) {
		case 0: // a key between entries
			k = append(k, 0)
		case 1: // a key that may sort before its entry
			if len(k) > 0 {
				k = k[:len(k)-1]
			}
		}
		targets = append(targets, k)
	}
	for _, target := range targets {
		s.seek(it, target)
		pos := sort.Search(len(want), func(i int) bool { return bytes.Compare(want[i].Key, target) >= 0 })
		steps := len(want) - pos
		if target != nil {
			steps = min(steps, 1+rng.Intn(40))
		}
		for i := 0; i < steps; i++ {
			w := want[pos+i]
			if s.key == nil || !bytes.Equal(s.key, w.Key) || s.tombstone() != w.Tombstone ||
				(!w.Tombstone && !bytes.Equal(s.val, w.Value)) {
				t.Fatalf("%s: from %q, step %d at %q (tombstone %v), want %q (tombstone %v)",
					what, target, i, s.key, s.tombstone(), w.Key, w.Tombstone)
			}
			s.step(it)
		}
		if pos+steps == len(want) && s.key != nil {
			t.Fatalf("%s: from %q, source goes on to %q past the table's last entry", what, target, s.key)
		}
	}
}

// TestSSTableVsModel builds tables of random entries — keys that are
// prefixes of others, long shared runs, tombstones, empty values, entries
// larger than a block — and reads each back three ways against the sorted
// entries: a source seeking at random keys and stepping, a merge of the whole
// table, and the same after a persist and loadSSTable.
func TestSSTableVsModel(t *testing.T) {
	single := 0 // blocks of one entry
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		want := modelEntries(rng, modelKeys(rng, 1+rng.Intn(400)))
		tbl := newSSTable(7, want)
		if !bytes.Equal(tbl.minKey, want[0].Key) || !bytes.Equal(tbl.maxKey, want[len(want)-1].Key) {
			t.Fatalf("seed %d: table bounds [%q, %q], want [%q, %q]", seed, tbl.minKey, tbl.maxKey, want[0].Key, want[len(want)-1].Key)
		}
		for bi, b := range tbl.blocks {
			shared, first, _, _, next := entryAt(b, 0)
			if shared != 0 || !bytes.Equal(first, tbl.firstKeys[bi]) {
				t.Fatalf("seed %d: block %d starts with an entry sharing %d bytes", seed, bi, shared)
			}
			if next == len(b) {
				single++
			}
		}
		checkSourceVsModel(t, rng, tbl, want, fmt.Sprintf("seed %d", seed))
		if got := mergeSources([]iterSource{{tables: []*ssTable{tbl}}}, false); formatEntries(got) != formatEntries(want) {
			t.Fatalf("seed %d: merge of the table differs from its entries", seed)
		}

		dir := NewDir()
		persistSSTable(dir, tbl)
		loaded, err := loadSSTable(dir, tbl.id)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(loaded.blocks) != len(tbl.blocks) || loaded.sizeB != tbl.sizeB || loaded.numEntries != tbl.numEntries {
			t.Fatalf("seed %d: reloaded table has %d blocks, %d B, %d entries; want %d, %d, %d", seed,
				len(loaded.blocks), loaded.sizeB, loaded.numEntries, len(tbl.blocks), tbl.sizeB, tbl.numEntries)
		}
		for bi := range tbl.blocks {
			if !bytes.Equal(loaded.blocks[bi], tbl.blocks[bi]) {
				t.Fatalf("seed %d: reloaded block %d differs", seed, bi)
			}
		}
		checkSourceVsModel(t, rng, loaded, want, fmt.Sprintf("seed %d, reloaded", seed))
	}
	if single == 0 {
		t.Fatal("no table had a single-entry block")
	}
}

// TestPointReadTableBytesPerEntry pins what a table of point_read's rows
// takes per entry: a usertable primary key as sql writes it (tenant, table
// and index prefix, the INT's tag and 8 bytes), escaped by
// keys.EncodeBytes, with mvcc's 16-byte timestamp, and a 265-byte value.
// Written whole, each entry's key was about 80 bytes and the entry about
// 354; with each key sharing its prefix with the one before, at most 300.
func TestPointReadTableBytesPerEntry(t *testing.T) {
	const rows, valueLen = 4000, 265
	rng := rand.New(rand.NewSource(1))
	entries := make([]Entry, rows)
	for k := range entries {
		user := keys.MakeTableIndexPrefix(2, 52, keys.PrimaryIndexID)
		user = keys.EncodeInt64(append(user, 0x02), int64(k))
		key := keys.EncodeBytes(nil, user)
		key = binary.BigEndian.AppendUint64(key, ^uint64(1_700_000_000_000_000_000+k/100))
		key = binary.BigEndian.AppendUint64(key, ^uint64(0))
		value := make([]byte, valueLen)
		rng.Read(value)
		entries[k] = Entry{Key: key, Value: value}
	}
	tbl := newSSTable(1, entries)
	encoded := 0
	for _, b := range tbl.blocks {
		encoded += len(b)
	}
	perEntry := float64(encoded) / rows
	t.Logf("%d-byte keys: %.1f encoded bytes per entry, %d logical", len(entries[0].Key), perEntry, tbl.sizeB/rows)
	if perEntry > 300 {
		t.Fatalf("a point_read row takes %.1f encoded bytes, want at most 300", perEntry)
	}
}
