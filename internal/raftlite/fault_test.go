package raftlite

import (
	"errors"
	"testing"

	"crdbserverless/internal/faultinject"
	"crdbserverless/internal/kvpb"
)

// Regression: a replica that was dead while entries committed could acquire
// the lease (once the old one lapsed) without first applying those entries.
// Reads serve from applied state, so the new leaseholder answered from a
// stale snapshot until something else happened to trigger a catch-up.
func TestAcquireLeaseAppliesPendingEntries(t *testing.T) {
	f := newFixture(t, 3)
	g := f.group
	if err := g.AcquireLease(1); err != nil {
		t.Fatal(err)
	}
	f.dead[3] = true
	for i := 0; i < 5; i++ {
		if err := g.Propose(1, []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := g.AppliedIndex(3); n != 0 {
		t.Fatalf("dead replica applied %d entries", n)
	}
	// Liveness flap: node 3 revives, the holder fails liveness so its lease
	// lapses, and node 3 grabs it.
	f.dead[3] = false
	f.dead[1] = true
	if err := g.AcquireLease(3); err != nil {
		t.Fatal(err)
	}
	applied, err := g.AppliedIndex(3)
	if err != nil {
		t.Fatal(err)
	}
	if commit := g.CommitIndex(); applied != commit {
		t.Fatalf("new leaseholder applied=%d commit=%d: stale-read window", applied, commit)
	}
	if got := f.sms[2].applied(); len(got) != 5 {
		t.Fatalf("state machine applied %d entries, want 5", len(got))
	}
}

// Same rule on the transfer path: the target may have been dead while
// entries committed.
func TestTransferLeaseAppliesPendingEntries(t *testing.T) {
	f := newFixture(t, 3)
	g := f.group
	if err := g.AcquireLease(1); err != nil {
		t.Fatal(err)
	}
	f.dead[2] = true
	for i := 0; i < 3; i++ {
		if err := g.Propose(1, []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	f.dead[2] = false
	if err := g.TransferLease(1, 2); err != nil {
		t.Fatal(err)
	}
	applied, _ := g.AppliedIndex(2)
	if commit := g.CommitIndex(); applied != commit {
		t.Fatalf("transfer target applied=%d commit=%d", applied, commit)
	}
}

// newFaultGroup builds a 3-node group wired to a fault registry.
func newFaultGroup(t *testing.T, reg *faultinject.Registry) *Group {
	t.Helper()
	nodes := []NodeID{1, 2, 3}
	sms := []StateMachine{&memSM{}, &memSM{}, &memSM{}}
	g, err := NewGroup(Config{RangeID: 7, Faults: reg}, nodes, sms)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLeaseExpireFaultForcesReacquisition(t *testing.T) {
	reg := faultinject.New(7, nil)
	g := newFaultGroup(t, reg)
	if err := g.AcquireLease(1); err != nil {
		t.Fatal(err)
	}
	if err := g.Propose(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	reg.Enable("raftlite.lease.expire", faultinject.Site{Probability: 1, MaxFires: 1})
	var nlhe *kvpb.NotLeaseholderError
	if err := g.Propose(1, []byte("y")); !errors.As(err, &nlhe) {
		t.Fatalf("propose under a cleared lease = %v, want NotLeaseholderError", err)
	}
	if got := g.CommitIndex(); got != 1 {
		t.Fatalf("commit index = %d after rejected proposal, want 1", got)
	}
	// The proposer reacquires (the cleared lease is up for grabs) and the
	// write goes through.
	if err := g.AcquireLease(1); err != nil {
		t.Fatal(err)
	}
	if err := g.Propose(1, []byte("y")); err != nil {
		t.Fatal(err)
	}
}

func TestProposeErrFaultIsRetriable(t *testing.T) {
	reg := faultinject.New(8, nil)
	g := newFaultGroup(t, reg)
	if err := g.AcquireLease(1); err != nil {
		t.Fatal(err)
	}
	reg.Enable("raftlite.propose.err", faultinject.Site{Probability: 1, MaxFires: 1, Retriable: true})
	err := g.Propose(1, []byte("x"))
	if !faultinject.IsInjected(err) || !kvpb.IsRetriable(err) {
		t.Fatalf("err = %v, want retriable injected fault", err)
	}
	if got := g.CommitIndex(); got != 0 {
		t.Fatalf("commit index = %d after dropped proposal, want 0", got)
	}
	if err := g.Propose(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := g.CommitIndex(); got != 1 {
		t.Fatalf("commit index = %d, want 1", got)
	}
}
