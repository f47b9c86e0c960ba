package kvpb

import (
	"fmt"
	"testing"

	"crdbserverless/internal/keys"
)

// fillPage appends n rows with keys like a table's, and returns the keys as
// they should read.
func fillPage(t *testing.T, p *Page, n int) []keys.Key {
	t.Helper()
	want := make([]keys.Key, n)
	for i := range want {
		want[i] = keys.Key(fmt.Sprintf("/table/%06d", i))
		if err := p.AppendRow(keys.EncodeBytes(nil, want[i]), nil); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// A page's keys are the ones encoded, each its own slice, and a page reset
// after a fill takes the next fill like it without an allocation: the row
// headers stay, and the slab is one chunk sized to the last fill's keys.
func TestPageRefillAllocatesNothing(t *testing.T) {
	var p Page
	for round := 0; round < 2; round++ {
		want := fillPage(t, &p, 2000)
		for i, kv := range p.Rows {
			if !kv.Key.Equal(want[i]) {
				t.Fatalf("round %d: row %d key %q, want %q", round, i, kv.Key, want[i])
			}
		}
		grown := append(p.Rows[0].Key, 0xee)
		if !p.Rows[1].Key.Equal(want[1]) || !grown[:len(grown)-1].Equal(want[0]) {
			t.Fatalf("round %d: appending to key 0 changed key 1 to %q", round, p.Rows[1].Key)
		}
		p.reset()
	}
	enc := make([][]byte, 2000)
	for i := range enc {
		enc[i] = keys.EncodeBytes(nil, keys.Key(fmt.Sprintf("/table/%06d", i)))
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, e := range enc {
			if err := p.AppendRow(e, nil); err != nil {
				t.Fatal(err)
			}
		}
		p.reset()
	})
	if allocs != 0 {
		t.Fatalf("refilling a reset page makes %v allocations, want 0", allocs)
	}
}

// A response owns the pages kept for it and those it takes from responses
// folded into it; Release hands every one back and drops the rows.
func TestPageOwnershipMoves(t *testing.T) {
	count := func(b *BatchResponse) int {
		n := 0
		for p := b.pages; p != nil; p = p.next {
			n++
		}
		return n
	}
	var head, rest, out BatchResponse
	head.KeepPage(new(Page))
	head.KeepPage(nil)
	rest.KeepPage(new(Page))
	rest.KeepPage(new(Page))
	out.TakePages(&head)
	out.TakePages(&rest)
	if count(&head) != 0 || count(&rest) != 0 || count(&out) != 3 {
		t.Fatalf("after taking: head %d, rest %d, out %d pages; want 0, 0, 3", count(&head), count(&rest), count(&out))
	}
	out.Responses = []Response{{Rows: []KeyValue{{Key: keys.Key("k")}}}}
	out.Release()
	if count(&out) != 0 || out.Responses[0].Rows != nil {
		t.Fatalf("after release: %d pages, rows %v", count(&out), out.Responses[0].Rows)
	}
}
