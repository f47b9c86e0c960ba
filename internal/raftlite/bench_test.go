package raftlite

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"crdbserverless/internal/timeutil"
)

// benchGroup builds a 3-replica group with a leaseholder on node 1.
func benchGroup(b *testing.B, overhead time.Duration) *Group {
	b.Helper()
	g, err := NewGroup(Config{
		RangeID:       1,
		Clock:         timeutil.NewRealClock(),
		LeaseDuration: time.Hour,
	}, []NodeID{1, 2, 3}, []StateMachine{&memSM{}, &memSM{}, &memSM{}})
	if err != nil {
		b.Fatal(err)
	}
	g.commitOverhead = overhead
	if err := g.AcquireLease(1); err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkKVProposeSequential measures the sequencer's own overhead on the
// single-proposer path, where every round carries exactly one entry.
func BenchmarkKVProposeSequential(b *testing.B) {
	g := benchGroup(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Propose(1, []byte("cmd")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKVProposeGroupCommit8 drives b.N proposals from 8 concurrent
// proposers against a group whose commit rounds cost 100µs each.
func BenchmarkKVProposeGroupCommit8(b *testing.B) {
	g := benchGroup(b, 100*time.Microsecond)
	const proposers = 8
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < proposers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := []byte(fmt.Sprintf("p%d", w))
			for i := w; i < b.N; i += proposers {
				if err := g.Propose(1, payload); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
