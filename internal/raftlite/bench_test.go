package raftlite

import "testing"

// BenchmarkKVProposeSequential measures one proposal's commit round on a
// 3-replica group with the lease on node 1.
func BenchmarkKVProposeSequential(b *testing.B) {
	g, err := NewGroup(Config{RangeID: 1}, []NodeID{1, 2, 3}, []StateMachine{&memSM{}, &memSM{}, &memSM{}})
	if err != nil {
		b.Fatal(err)
	}
	if err := g.AcquireLease(1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Propose(1, []byte("cmd")); err != nil {
			b.Fatal(err)
		}
	}
}
