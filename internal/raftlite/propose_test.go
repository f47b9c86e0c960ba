package raftlite

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/metric"
	"crdbserverless/internal/trace"
)

// groupFixture builds a 3-node group with commit metrics and the lease on
// node 1.
func groupFixture(t *testing.T) (*Group, []*memSM, *CommitMetrics) {
	t.Helper()
	cm := NewCommitMetrics(metric.NewRegistry())
	var nodes []NodeID
	var sms []StateMachine
	var mems []*memSM
	for i := 1; i <= 3; i++ {
		sm := &memSM{}
		mems = append(mems, sm)
		nodes = append(nodes, NodeID(i))
		sms = append(sms, sm)
	}
	g, err := NewGroup(Config{RangeID: 11, CommitMetrics: cm}, nodes, sms)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AcquireLease(1); err != nil {
		t.Fatal(err)
	}
	return g, mems, cm
}

// Proposers that no range latch serializes still commit one entry per round:
// every proposal succeeds exactly once, every replica applies the same
// sequence, and each proposer's commands keep the order it proposed them in.
func TestConcurrentProposersSerialize(t *testing.T) {
	const proposers, perProposer = 8, 25
	g, mems, cm := groupFixture(t)
	var wg sync.WaitGroup
	errCh := make(chan error, proposers*perProposer)
	for w := 0; w < proposers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perProposer; i++ {
				if err := g.Propose(1, []byte(fmt.Sprintf("w%d-%03d", w, i))); err != nil {
					errCh <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	const total = proposers * perProposer
	if cm.Batches.Value() != total || cm.Entries.Value() != total || g.CommitIndex() != total {
		t.Fatalf("batches=%d entries=%d commit=%d, want %d each",
			cm.Batches.Value(), cm.Entries.Value(), g.CommitIndex(), total)
	}
	ref := mems[0].applied()
	if len(ref) != total {
		t.Fatalf("replica 1 applied %d entries, want %d", len(ref), total)
	}
	for i, sm := range mems[1:] {
		if got := sm.applied(); fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Fatalf("replica %d apply order diverges from replica 1", i+2)
		}
	}
	seen := make(map[string]bool, total)
	next := make([]int, proposers)
	for _, cmd := range ref {
		if seen[cmd] {
			t.Fatalf("command %q applied twice", cmd)
		}
		seen[cmd] = true
		var w, i int
		if _, err := fmt.Sscanf(cmd, "w%d-%d", &w, &i); err != nil {
			t.Fatalf("unexpected command %q", cmd)
		}
		if i != next[w] {
			t.Fatalf("proposer %d: applied command %d, want %d", w, i, next[w])
		}
		next[w]++
	}
}

// A proposal from a node without the lease gets its own verdict — a redirect
// to the holder — and leaves no trace in the log, the replicas or the commit
// counters; the next leaseholder proposal commits at index 1.
func TestGroupCommitPerProposalErrors(t *testing.T) {
	g, mems, cm := groupFixture(t)
	sp := trace.New(trace.Options{}).StartRoot("test")
	ctx := trace.ContextWithSpan(context.Background(), sp)

	err := g.ProposeCtx(ctx, 2, []byte("bad"))
	var nle *kvpb.NotLeaseholderError
	if !errors.As(err, &nle) || nle.Leaseholder != 1 {
		t.Fatalf("non-leaseholder proposal err = %v", err)
	}
	if g.CommitIndex() != 0 || len(mems[0].applied()) != 0 || cm.Batches.Value() != 0 || cm.Entries.Value() != 0 {
		t.Fatalf("rejected proposal left commit=%d applied=%v batches=%d entries=%d",
			g.CommitIndex(), mems[0].applied(), cm.Batches.Value(), cm.Entries.Value())
	}

	if err := g.ProposeCtx(ctx, 1, []byte("good")); err != nil {
		t.Fatal(err)
	}
	if g.CommitIndex() != 1 || cm.Batches.Value() != 1 || cm.Entries.Value() != 1 {
		t.Fatalf("commit=%d batches=%d entries=%d, want 1 each",
			g.CommitIndex(), cm.Batches.Value(), cm.Entries.Value())
	}
	for i, sm := range mems {
		if got := sm.applied(); len(got) != 1 || got[0] != "good" {
			t.Fatalf("replica %d applied %v, want [good]", i+1, got)
		}
	}
	sp.Finish()
	var msgs []string
	for _, ev := range sp.Events() {
		msgs = append(msgs, ev.Msg)
	}
	want := []string{"raft.commit: r11 rejected (not_leaseholder)", "raft.commit: r11 index=1"}
	if fmt.Sprint(msgs) != fmt.Sprint(want) {
		t.Fatalf("events = %q, want %q", msgs, want)
	}
}

// Proposals from every non-leaseholder replica are all rejected: nothing is
// appended, applied or counted.
func TestGroupCommitAllRejectedRecordsNothing(t *testing.T) {
	g, mems, cm := groupFixture(t)
	for _, node := range []NodeID{2, 3} {
		err := g.Propose(node, []byte(fmt.Sprintf("n%d", node)))
		var nle *kvpb.NotLeaseholderError
		if !errors.As(err, &nle) || nle.Leaseholder != 1 {
			t.Fatalf("node %d proposal err = %v", node, err)
		}
	}
	if g.CommitIndex() != 0 || cm.Batches.Value() != 0 || cm.Entries.Value() != 0 {
		t.Fatalf("commit=%d batches=%d entries=%d after rejected proposals",
			g.CommitIndex(), cm.Batches.Value(), cm.Entries.Value())
	}
	for i, sm := range mems {
		if got := sm.applied(); len(got) != 0 {
			t.Fatalf("replica %d applied %v, want nothing", i+1, got)
		}
	}
}

// A replica's apply error surfaces on every committed proposal it fails, and
// a rejected proposal between them keeps its own redirect.
func TestGroupCommitApplyErrorHitsWholeRound(t *testing.T) {
	g, mems, _ := groupFixture(t)
	mems[1].errs = true
	errA := g.Propose(1, []byte("a"))
	errRejected := g.Propose(3, []byte("c"))
	errB := g.Propose(1, []byte("b"))
	if errA == nil || errB == nil {
		t.Fatalf("apply error not surfaced: %v / %v", errA, errB)
	}
	var nle *kvpb.NotLeaseholderError
	if !errors.As(errRejected, &nle) {
		t.Fatalf("rejected proposal should keep its own error, got %v", errRejected)
	}
	if g.CommitIndex() != 2 {
		t.Fatalf("commit index = %d, want 2", g.CommitIndex())
	}
}

// With a single synchronous proposer — every deterministic harness in the
// repo — each proposal is one round of one entry, applied in proposal order.
func TestGroupCommitSingleProposerMatchesBaseline(t *testing.T) {
	g, mems, cm := groupFixture(t)
	var want []string
	for i := 0; i < 20; i++ {
		cmd := fmt.Sprintf("c%02d", i)
		want = append(want, cmd)
		if err := g.Propose(1, []byte(cmd)); err != nil {
			t.Fatal(err)
		}
	}
	for i, sm := range mems {
		if got := sm.applied(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("replica %d applied %v, want %v", i+1, got, want)
		}
	}
	if cm.Batches.Value() != 20 || cm.Entries.Value() != 20 {
		t.Fatalf("single proposer: batches=%d entries=%d, want 20 rounds of 1",
			cm.Batches.Value(), cm.Entries.Value())
	}
}
