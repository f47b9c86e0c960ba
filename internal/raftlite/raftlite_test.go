package raftlite

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"crdbserverless/internal/kvpb"
)

// memSM is a StateMachine recording applied commands.
type memSM struct {
	mu   sync.Mutex
	cmds []string
	errs bool
}

func (m *memSM) Apply(index uint64, cmd []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.errs {
		return errors.New("apply failed")
	}
	if int(index) != len(m.cmds)+1 {
		return fmt.Errorf("apply out of order: index %d after %d entries", index, len(m.cmds))
	}
	m.cmds = append(m.cmds, string(cmd))
	return nil
}

func (m *memSM) applied() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.cmds...)
}

type fixture struct {
	sms   []*memSM
	group *Group
	dead  map[NodeID]bool
}

func newFixture(t *testing.T, n int) *fixture {
	t.Helper()
	f := &fixture{dead: map[NodeID]bool{}}
	var nodes []NodeID
	var sms []StateMachine
	for i := 1; i <= n; i++ {
		sm := &memSM{}
		f.sms = append(f.sms, sm)
		nodes = append(nodes, NodeID(i))
		sms = append(sms, sm)
	}
	g, err := NewGroup(Config{
		RangeID:  7,
		Liveness: func(id NodeID) bool { return !f.dead[id] },
	}, nodes, sms)
	if err != nil {
		t.Fatal(err)
	}
	f.group = g
	return f
}

func TestNewGroupValidation(t *testing.T) {
	if _, err := NewGroup(Config{}, nil, nil); err == nil {
		t.Fatal("empty group should be rejected")
	}
	if _, err := NewGroup(Config{}, []NodeID{1}, []StateMachine{&memSM{}, &memSM{}}); err == nil {
		t.Fatal("mismatched lengths should be rejected")
	}
}

func TestAcquireLeaseAndPropose(t *testing.T) {
	f := newFixture(t, 3)
	if _, ok := f.group.Leaseholder(); ok {
		t.Fatal("new group should have no leaseholder")
	}
	if err := f.group.AcquireLease(1); err != nil {
		t.Fatal(err)
	}
	if lh, ok := f.group.Leaseholder(); !ok || lh != 1 {
		t.Fatalf("leaseholder = %d %v", lh, ok)
	}
	if err := f.group.Propose(1, []byte("cmd1")); err != nil {
		t.Fatal(err)
	}
	for i, sm := range f.sms {
		if got := sm.applied(); len(got) != 1 || got[0] != "cmd1" {
			t.Fatalf("replica %d applied %v", i+1, got)
		}
	}
}

func TestProposeWithoutLeaseFails(t *testing.T) {
	f := newFixture(t, 3)
	err := f.group.Propose(1, []byte("x"))
	var nle *kvpb.NotLeaseholderError
	if !errors.As(err, &nle) {
		t.Fatalf("expected NotLeaseholderError, got %v", err)
	}
	f.group.AcquireLease(1)
	err = f.group.Propose(2, []byte("x"))
	if !errors.As(err, &nle) || nle.Leaseholder != 1 {
		t.Fatalf("non-holder propose: %v", err)
	}
}

// A lease lapses only while its holder fails liveness, and ends only when
// another replica acquires it: a holder that comes back before anyone else
// takes over holds the same lease again, with no new grant.
func TestLeaseLapsesWhenHolderFailsLiveness(t *testing.T) {
	f := newFixture(t, 3)
	if err := f.group.AcquireLease(1); err != nil {
		t.Fatal(err)
	}
	granted := f.group.Lease()
	f.dead[1] = true
	if _, ok := f.group.Leaseholder(); ok {
		t.Fatal("lease of a dead holder should lapse")
	}
	f.dead[1] = false
	if lh, ok := f.group.Leaseholder(); !ok || lh != 1 {
		t.Fatalf("revived holder: leaseholder = %d %v, want 1", lh, ok)
	}
	if got := f.group.Lease(); got != granted {
		t.Fatalf("lease record changed without a grant: %+v -> %+v", granted, got)
	}
	// Once another replica takes the lapsed lease, the old holder's revival
	// does not bring it back.
	f.dead[1] = true
	if err := f.group.AcquireLease(2); err != nil {
		t.Fatal(err)
	}
	f.dead[1] = false
	if lh, _ := f.group.Leaseholder(); lh != 2 {
		t.Fatalf("leaseholder = %d, want 2", lh)
	}
	var nle *kvpb.NotLeaseholderError
	if err := f.group.AcquireLease(1); !errors.As(err, &nle) || nle.Leaseholder != 2 {
		t.Fatalf("old holder's acquire = %v, want NotLeaseholderError naming 2", err)
	}
	if err := f.group.Propose(1, []byte("x")); !errors.As(err, &nle) {
		t.Fatalf("old holder's propose = %v, want NotLeaseholderError", err)
	}
}

func TestAcquireLeaseConflicts(t *testing.T) {
	f := newFixture(t, 3)
	f.group.AcquireLease(1)
	err := f.group.AcquireLease(2)
	var nle *kvpb.NotLeaseholderError
	if !errors.As(err, &nle) || nle.Leaseholder != 1 {
		t.Fatalf("competing acquire = %v", err)
	}
	// Re-acquiring by the holder extends.
	if err := f.group.AcquireLease(1); err != nil {
		t.Fatal(err)
	}
	if err := f.group.AcquireLease(99); err != ErrUnknownPeer {
		t.Fatalf("unknown peer acquire = %v", err)
	}
}

func TestDeadHolderLeaseTakenOver(t *testing.T) {
	f := newFixture(t, 3)
	f.group.AcquireLease(1)
	f.dead[1] = true
	// Holder is dead: leaseholder query reports none, and node 2 may take
	// the lease immediately (epoch-based takeover).
	if _, ok := f.group.Leaseholder(); ok {
		t.Fatal("dead holder should not be reported")
	}
	if err := f.group.AcquireLease(2); err != nil {
		t.Fatal(err)
	}
	if lh, _ := f.group.Leaseholder(); lh != 2 {
		t.Fatalf("leaseholder = %d", lh)
	}
}

func TestQuorumLoss(t *testing.T) {
	f := newFixture(t, 3)
	f.group.AcquireLease(1)
	f.dead[2] = true
	// 2 of 3 live: still a quorum.
	if err := f.group.Propose(1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	f.dead[3] = true
	// 1 of 3 live: no quorum.
	if err := f.group.Propose(1, []byte("fails")); err != ErrNoQuorum {
		t.Fatalf("propose without quorum = %v", err)
	}
	if err := f.group.AcquireLease(1); err == nil {
		// Lease still held by 1, so re-acquire extends... but quorum is
		// gone; the implementation allows extension via AcquireLease only
		// with quorum.
		t.Fatal("lease acquisition without quorum should fail")
	}
}

func TestDeadReplicaCatchesUp(t *testing.T) {
	f := newFixture(t, 3)
	f.group.AcquireLease(1)
	f.dead[3] = true
	f.group.Propose(1, []byte("a"))
	f.group.Propose(1, []byte("b"))
	if got := f.sms[2].applied(); len(got) != 0 {
		t.Fatalf("dead replica applied %v", got)
	}
	f.dead[3] = false
	if err := f.group.CatchUp(3); err != nil {
		t.Fatal(err)
	}
	if got := f.sms[2].applied(); fmt.Sprint(got) != fmt.Sprint([]string{"a", "b"}) {
		t.Fatalf("caught-up replica applied %v", got)
	}
	idx, err := f.group.AppliedIndex(3)
	if err != nil || idx != 2 {
		t.Fatalf("applied index = %d %v", idx, err)
	}
	if f.group.CommitIndex() != 2 {
		t.Fatalf("commit index = %d", f.group.CommitIndex())
	}
}

func TestCatchUpUnknownPeer(t *testing.T) {
	f := newFixture(t, 3)
	if err := f.group.CatchUp(99); err != ErrUnknownPeer {
		t.Fatalf("CatchUp(99) = %v", err)
	}
	if _, err := f.group.AppliedIndex(99); err != ErrUnknownPeer {
		t.Fatalf("AppliedIndex(99) = %v", err)
	}
}

func TestTransferLease(t *testing.T) {
	f := newFixture(t, 3)
	f.group.AcquireLease(1)
	if err := f.group.TransferLease(1, 2); err != nil {
		t.Fatal(err)
	}
	if lh, _ := f.group.Leaseholder(); lh != 2 {
		t.Fatalf("leaseholder after transfer = %d", lh)
	}
	// Old holder can no longer propose.
	var nle *kvpb.NotLeaseholderError
	if err := f.group.Propose(1, []byte("x")); !errors.As(err, &nle) {
		t.Fatalf("old holder propose = %v", err)
	}
	if err := f.group.TransferLease(1, 2); err != ErrNotLeaseholder {
		t.Fatalf("transfer from non-holder = %v", err)
	}
	if err := f.group.TransferLease(2, 99); err != ErrUnknownPeer {
		t.Fatalf("transfer to unknown = %v", err)
	}
}

func TestLeaseSequenceIncrements(t *testing.T) {
	f := newFixture(t, 3)
	f.group.AcquireLease(1)
	s1 := f.group.Lease().Sequence
	f.group.TransferLease(1, 2)
	s2 := f.group.Lease().Sequence
	if s2 != s1+1 {
		t.Fatalf("sequence %d -> %d", s1, s2)
	}
}

func TestProposalOrderPreserved(t *testing.T) {
	f := newFixture(t, 5)
	f.group.AcquireLease(3)
	want := make([]string, 0, 50)
	for i := 0; i < 50; i++ {
		cmd := fmt.Sprintf("cmd%02d", i)
		want = append(want, cmd)
		if err := f.group.Propose(3, []byte(cmd)); err != nil {
			t.Fatal(err)
		}
	}
	for i, sm := range f.sms {
		if got := sm.applied(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("replica %d order mismatch: %v", i+1, got)
		}
	}
	if got := f.group.Replicas(); len(got) != 5 {
		t.Fatalf("replicas = %v", got)
	}
}

// One replica's apply error surfaces on the proposal, which still commits
// and applies on the healthy replicas.
func TestApplyErrorSurfaces(t *testing.T) {
	f := newFixture(t, 3)
	f.group.AcquireLease(1)
	f.sms[1].errs = true
	if err := f.group.Propose(1, []byte("x")); err == nil {
		t.Fatal("apply error should surface")
	}
	if f.group.CommitIndex() != 1 {
		t.Fatalf("commit index = %d, want 1", f.group.CommitIndex())
	}
	for _, i := range []int{0, 2} {
		if got := f.sms[i].applied(); len(got) != 1 || got[0] != "x" {
			t.Fatalf("replica %d applied %v, want [x]", i+1, got)
		}
	}
}
