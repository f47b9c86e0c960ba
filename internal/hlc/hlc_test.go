package hlc

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"crdbserverless/internal/timeutil"
)

func TestTimestampOrdering(t *testing.T) {
	a := Timestamp{WallTime: 1, Logical: 0}
	b := Timestamp{WallTime: 1, Logical: 1}
	c := Timestamp{WallTime: 2, Logical: 0}
	if !a.Less(b) || !b.Less(c) || !a.Less(c) {
		t.Fatal("ordering broken")
	}
	if b.Less(a) || c.Less(b) {
		t.Fatal("reverse ordering broken")
	}
	if a.Less(a) {
		t.Fatal("irreflexivity broken")
	}
	var z Timestamp
	if !z.IsEmpty() || a.IsEmpty() {
		t.Fatal("only the zero timestamp is empty")
	}
}

// TestTimestampNextIsSuccessor: Next is the smallest timestamp above ts.
func TestTimestampNextIsSuccessor(t *testing.T) {
	f := func(wall int64, logical int32) bool {
		if wall < 0 {
			wall = -wall
		}
		if logical < 0 {
			logical = -logical
		}
		ts := Timestamp{WallTime: wall, Logical: logical}
		want := Timestamp{WallTime: wall, Logical: logical + 1}
		if logical == 1<<31-1 {
			want = Timestamp{WallTime: wall + 1}
		}
		return ts.Less(ts.Next()) && ts.Next() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimestampNextAtLogicalMax(t *testing.T) {
	ts := Timestamp{WallTime: 5, Logical: int32(^uint32(0) >> 1)}
	next := ts.Next()
	if next.WallTime != 6 || next.Logical != 0 {
		t.Fatalf("overflow Next = %+v", next)
	}
}

func TestClockMonotonic(t *testing.T) {
	mc := timeutil.NewManualClock(time.Unix(100, 0))
	c := NewClock(mc)
	prev := c.Now()
	// Without advancing physical time, logical must increase.
	for i := 0; i < 100; i++ {
		cur := c.Now()
		if !prev.Less(cur) {
			t.Fatalf("clock not monotonic: %v then %v", prev, cur)
		}
		prev = cur
	}
	// Advancing physical time resets logical.
	mc.Advance(time.Second)
	cur := c.Now()
	if !prev.Less(cur) || cur.Logical != 0 {
		t.Fatalf("after advance: %v (prev %v)", cur, prev)
	}
}

func TestClockUpdateMergesRemote(t *testing.T) {
	mc := timeutil.NewManualClock(time.Unix(100, 0))
	c := NewClock(mc)
	remote := Timestamp{WallTime: time.Unix(200, 0).UnixNano(), Logical: 7}
	c.Update(remote)
	got := c.Now()
	if !remote.Less(got) {
		t.Fatalf("Now() = %v should exceed merged remote %v", got, remote)
	}
	// Updating with an older timestamp is a no-op.
	c.Update(Timestamp{WallTime: 1})
	got2 := c.Now()
	if !got.Less(got2) {
		t.Fatal("clock regressed after stale update")
	}
}

func TestClockConcurrentUniqueness(t *testing.T) {
	mc := timeutil.NewManualClock(time.Unix(100, 0))
	c := NewClock(mc)
	const goroutines = 8
	const per = 500
	results := make([][]Timestamp, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]Timestamp, per)
			for i := 0; i < per; i++ {
				out[i] = c.Now()
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	seen := make(map[Timestamp]bool)
	for _, r := range results {
		for _, ts := range r {
			if seen[ts] {
				t.Fatalf("duplicate timestamp %v", ts)
			}
			seen[ts] = true
		}
	}
}

func TestTimestampString(t *testing.T) {
	ts := Timestamp{WallTime: 1500000000, Logical: 3}
	if got := ts.String(); got != "1.500000000,3" {
		t.Fatalf("String = %q", got)
	}
}

func TestGoTime(t *testing.T) {
	ts := Timestamp{WallTime: time.Unix(42, 99).UnixNano()}
	if !ts.GoTime().Equal(time.Unix(42, 99)) {
		t.Fatal("GoTime mismatch")
	}
}
