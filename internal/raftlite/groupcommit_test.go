package raftlite

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/metric"
	"crdbserverless/internal/timeutil"
)

// groupFixture builds a 3-node group on a real clock with commit metrics and
// the given per-round overhead — the shape the group-commit tests need.
func groupFixture(t *testing.T, overhead time.Duration) (*Group, []*memSM, *CommitMetrics) {
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
	g, err := NewGroup(Config{
		RangeID:       11,
		Clock:         timeutil.NewRealClock(),
		LeaseDuration: time.Hour,
		CommitMetrics: cm,
	}, nodes, sms)
	if err != nil {
		t.Fatal(err)
	}
	g.commitOverhead = overhead
	if err := g.AcquireLease(1); err != nil {
		t.Fatal(err)
	}
	return g, mems, cm
}

// proposeConcurrently fires proposers×perProposer proposals at the group.
// Every proposal must succeed.
func proposeConcurrently(t *testing.T, g *Group, proposers, perProposer int) {
	t.Helper()
	var wg sync.WaitGroup
	errCh := make(chan error, proposers*perProposer)
	for w := 0; w < proposers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perProposer; i++ {
				if err := g.Propose(1, []byte(fmt.Sprintf("w%d-%03d", w, i))); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// With a per-round overhead and many concurrent proposers, the sequencer must
// coalesce: strictly fewer commit rounds than entries, with every entry
// durable on every replica.
func TestGroupCommitCoalesces(t *testing.T) {
	const proposers, perProposer = 8, 25
	g, mems, cm := groupFixture(t, 2*time.Millisecond)
	proposeConcurrently(t, g, proposers, perProposer)

	total := int64(proposers * perProposer)
	if cm.Entries.Value() != total {
		t.Fatalf("entries = %d, want %d", cm.Entries.Value(), total)
	}
	if cm.Batches.Value() >= total {
		t.Fatalf("batches = %d entries = %d: no coalescing happened", cm.Batches.Value(), total)
	}
	if got := cm.BatchSize.Snapshot().Count; got != uint64(cm.Batches.Value()) {
		t.Fatalf("batch_size histogram count = %d, batches = %d", got, cm.Batches.Value())
	}
	if m := cm.BatchSize.Snapshot().Max; m < 2 {
		t.Fatalf("max batch size = %d, want >= 2", m)
	}
	if g.CommitIndex() != uint64(total) {
		t.Fatalf("commit index = %d, want %d", g.CommitIndex(), total)
	}
	// Durability and order: every replica applied the same sequence, and that
	// sequence is a permutation of everything proposed.
	ref := mems[0].applied()
	if len(ref) != int(total) {
		t.Fatalf("replica 1 applied %d entries, want %d", len(ref), total)
	}
	for i, sm := range mems[1:] {
		if got := sm.applied(); fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Fatalf("replica %d apply order diverges from replica 1", i+2)
		}
	}
	seen := make(map[string]bool, total)
	for _, cmd := range ref {
		if seen[cmd] {
			t.Fatalf("command %q applied twice", cmd)
		}
		seen[cmd] = true
	}
	for w := 0; w < proposers; w++ {
		// FIFO per proposer: a proposer's own commands keep their issue order.
		last := -1
		for i, cmd := range ref {
			var ww, ii int
			if _, err := fmt.Sscanf(cmd, "w%d-%d", &ww, &ii); err != nil || ww != w {
				continue
			}
			if i < last {
				t.Fatalf("proposer %d commands reordered", w)
			}
			last = i
		}
	}
}

// A rejected proposal must not fail its round-mates: drive one commit round
// holding both a leaseholder proposal and a non-leaseholder proposal, and
// check each gets its own verdict.
func TestGroupCommitPerProposalErrors(t *testing.T) {
	g, mems, cm := groupFixture(t, 0)
	good := &proposal{node: 1, cmd: []byte("good"), done: make(chan struct{})}
	bad := &proposal{node: 2, cmd: []byte("bad"), done: make(chan struct{})}
	g.commitRound([]*proposal{bad, good})
	<-bad.done
	<-good.done
	var nle *kvpb.NotLeaseholderError
	if !errors.As(bad.err, &nle) || nle.Leaseholder != 1 {
		t.Fatalf("non-leaseholder proposal err = %v", bad.err)
	}
	if good.err != nil {
		t.Fatalf("leaseholder proposal err = %v", good.err)
	}
	if good.index != 1 || good.batch != 1 {
		t.Fatalf("good proposal index=%d batch=%d, want 1/1", good.index, good.batch)
	}
	if got := mems[0].applied(); len(got) != 1 || got[0] != "good" {
		t.Fatalf("applied %v, want [good]", got)
	}
	if cm.Batches.Value() != 1 || cm.Entries.Value() != 1 {
		t.Fatalf("batches=%d entries=%d after mixed round", cm.Batches.Value(), cm.Entries.Value())
	}
}

// An all-rejected batch commits nothing and records no round.
func TestGroupCommitAllRejectedRecordsNothing(t *testing.T) {
	g, _, cm := groupFixture(t, 0)
	p1 := &proposal{node: 2, cmd: []byte("a"), done: make(chan struct{})}
	p2 := &proposal{node: 3, cmd: []byte("b"), done: make(chan struct{})}
	g.commitRound([]*proposal{p1, p2})
	var nle *kvpb.NotLeaseholderError
	if !errors.As(p1.err, &nle) || !errors.As(p2.err, &nle) {
		t.Fatalf("errs = %v / %v", p1.err, p2.err)
	}
	if g.CommitIndex() != 0 || cm.Batches.Value() != 0 {
		t.Fatalf("commit=%d batches=%d after rejected round", g.CommitIndex(), cm.Batches.Value())
	}
}

// An apply error inside a round surfaces on the round's committed proposals,
// matching the one-proposal-per-round path.
func TestGroupCommitApplyErrorHitsWholeRound(t *testing.T) {
	g, mems, _ := groupFixture(t, 0)
	mems[1].errs = true
	p1 := &proposal{node: 1, cmd: []byte("a"), done: make(chan struct{})}
	p2 := &proposal{node: 1, cmd: []byte("b"), done: make(chan struct{})}
	rejected := &proposal{node: 3, cmd: []byte("c"), done: make(chan struct{})}
	g.commitRound([]*proposal{p1, rejected, p2})
	if p1.err == nil || p2.err == nil {
		t.Fatalf("apply error not surfaced: %v / %v", p1.err, p2.err)
	}
	var nle *kvpb.NotLeaseholderError
	if !errors.As(rejected.err, &nle) {
		t.Fatalf("rejected proposal should keep its own error, got %v", rejected.err)
	}
}

// With a single synchronous proposer — every deterministic harness in the
// repo — the sequencer must degenerate to one entry per round, applying
// exactly the proposed sequence in order.
func TestGroupCommitSingleProposerMatchesBaseline(t *testing.T) {
	g, mems, cm := groupFixture(t, 0)
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
	if cm.Batches.Value() != 20 || cm.Entries.Value() != 20 || cm.BatchSize.Snapshot().Max != 1 {
		t.Fatalf("single proposer: batches=%d entries=%d max=%d, want 20 rounds of 1",
			cm.Batches.Value(), cm.Entries.Value(), cm.BatchSize.Snapshot().Max)
	}
}
