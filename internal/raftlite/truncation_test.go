package raftlite

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// snapSM is a SnapshotStateMachine over a simple key=value map. Snapshot
// serializes the map deterministically; ApplySnapshot replaces the state.
type snapSM struct {
	mu    sync.Mutex
	state map[string]string
	order []string // insertion order, for deterministic snapshots
	snaps int
}

func newSnapSM() *snapSM { return &snapSM{state: map[string]string{}} }

func (m *snapSM) Apply(index uint64, cmd []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	k, v, ok := strings.Cut(string(cmd), "=")
	if !ok {
		return fmt.Errorf("bad command %q", cmd)
	}
	if _, exists := m.state[k]; !exists {
		m.order = append(m.order, k)
	}
	m.state[k] = v
	return nil
}

func (m *snapSM) Snapshot() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sb strings.Builder
	for _, k := range m.order {
		fmt.Fprintf(&sb, "%s=%s\n", k, m.state[k])
	}
	return []byte(sb.String()), nil
}

func (m *snapSM) ApplySnapshot(index uint64, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.state = map[string]string{}
	m.order = nil
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if line == "" {
			continue
		}
		k, v, ok := strings.Cut(line, "=")
		if !ok {
			return fmt.Errorf("bad snapshot line %q", line)
		}
		m.state[k] = v
		m.order = append(m.order, k)
	}
	m.snaps++
	return nil
}

func (m *snapSM) get(k string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state[k]
}

type snapFixture struct {
	sms   []*snapSM
	group *Group
	dead  map[NodeID]bool
}

func newSnapFixture(t *testing.T, n int, retention uint64) *snapFixture {
	t.Helper()
	f := &snapFixture{dead: map[NodeID]bool{}}
	var nodes []NodeID
	var sms []StateMachine
	for i := 1; i <= n; i++ {
		sm := newSnapSM()
		f.sms = append(f.sms, sm)
		nodes = append(nodes, NodeID(i))
		sms = append(sms, sm)
	}
	g, err := NewGroup(Config{
		RangeID:  9,
		Liveness: func(id NodeID) bool { return !f.dead[id] },
	}, nodes, sms)
	if err != nil {
		t.Fatal(err)
	}
	g.retention = retention
	f.group = g
	return f
}

func (f *snapFixture) propose(t *testing.T, kv string) {
	t.Helper()
	if err := f.group.Propose(1, []byte(kv)); err != nil {
		t.Fatalf("propose %q: %v", kv, err)
	}
}

// TestLogTruncationAdvances: with every peer live, the log compacts down to
// the retention window as commits advance.
func TestLogTruncationAdvances(t *testing.T) {
	f := newSnapFixture(t, 3, 4)
	if err := f.group.AcquireLease(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		f.propose(t, fmt.Sprintf("k%02d=v%02d", i, i))
	}
	if got, want := f.group.CommitIndex(), uint64(20); got != want {
		t.Fatalf("commit = %d, want %d", got, want)
	}
	if got, want := truncatedIndex(f.group), uint64(16); got != want {
		t.Fatalf("truncated = %d, want %d", got, want)
	}
	f.group.mu.Lock()
	logLen := len(f.group.log)
	f.group.mu.Unlock()
	if logLen != 4 {
		t.Fatalf("log holds %d entries, want 4 (retention)", logLen)
	}
}

// TestLogStaysBoundedByDefault: a group built with the default config keeps
// logRetention entries behind its peers, so a thousand commits on an all-live
// group leave a log, and a backing array, of constant size.
func TestLogStaysBoundedByDefault(t *testing.T) {
	f := newFixture(t, 3)
	if err := f.group.AcquireLease(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := f.group.Propose(1, []byte(fmt.Sprintf("c%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	f.group.mu.Lock()
	n, c := len(f.group.log), cap(f.group.log)
	f.group.mu.Unlock()
	if n > logRetention+1 {
		t.Fatalf("log holds %d entries after 1000 commits, want at most %d", n, logRetention+1)
	}
	if c > 4*logRetention {
		t.Fatalf("log's backing array holds %d entries, want at most %d", c, 4*logRetention)
	}
}

// TestTruncationAllocatesNothing: once the log's backing array has grown to
// its working size, appending an entry and truncating the log behind it
// allocate nothing; the log is compacted in place.
func TestTruncationAllocatesNothing(t *testing.T) {
	f := newFixture(t, 3)
	g := f.group
	cmd := []byte("c")
	allocs := testing.AllocsPerRun(100, func() {
		g.mu.Lock()
		g.log = append(g.log, entry{cmd: cmd})
		g.commit++
		for _, p := range g.peers {
			p.applied = g.commit
		}
		g.maybeTruncateLocked()
		g.mu.Unlock()
	})
	if allocs != 0 {
		t.Fatalf("append + truncate allocates %.1f objects, want 0", allocs)
	}
	if got, want := truncatedIndex(g), g.CommitIndex()-logRetention; got != want {
		t.Fatalf("truncated = %d, want %d", got, want)
	}
}

// TestSnapshotCatchUpBehindTruncation: a peer dead through enough commits to
// fall behind the truncation point rejoins via snapshot and converges.
func TestSnapshotCatchUpBehindTruncation(t *testing.T) {
	f := newSnapFixture(t, 3, 2)
	if err := f.group.AcquireLease(1); err != nil {
		t.Fatal(err)
	}
	f.propose(t, "a=1")
	f.dead[3] = true
	for i := 0; i < 15; i++ {
		f.propose(t, fmt.Sprintf("k%02d=v%02d", i, i))
	}
	if tr := truncatedIndex(f.group); tr == 0 {
		t.Fatal("log never truncated")
	}
	ap3, _ := f.group.AppliedIndex(3)
	if ap3 >= truncatedIndex(f.group) {
		t.Fatalf("test setup: peer 3 (applied=%d) not behind truncation (%d)",
			ap3, truncatedIndex(f.group))
	}
	f.dead[3] = false
	if err := f.group.CatchUp(3); err != nil {
		t.Fatal(err)
	}
	if f.sms[2].snaps != 1 {
		t.Fatalf("peer 3 received %d snapshots, want 1", f.sms[2].snaps)
	}
	if got := f.group.Snapshots(); got != 1 {
		t.Fatalf("Snapshots() = %d, want 1", got)
	}
	ap3, _ = f.group.AppliedIndex(3)
	if ap3 != f.group.CommitIndex() {
		t.Fatalf("peer 3 applied %d, commit %d", ap3, f.group.CommitIndex())
	}
	if got := f.sms[2].get("k14"); got != "v14" {
		t.Fatalf("peer 3 state k14 = %q, want v14", got)
	}
	if got := f.sms[2].get("a"); got != "1" {
		t.Fatalf("peer 3 state a = %q, want 1 (pre-truncation write)", got)
	}
}

// TestLaggardWithinRetentionUsesLogReplay: a peer behind but above the
// truncation point catches up from the log alone — no snapshot.
func TestLaggardWithinRetentionUsesLogReplay(t *testing.T) {
	f := newSnapFixture(t, 3, 100)
	if err := f.group.AcquireLease(1); err != nil {
		t.Fatal(err)
	}
	f.dead[3] = true
	for i := 0; i < 10; i++ {
		f.propose(t, fmt.Sprintf("k%02d=v%02d", i, i))
	}
	f.dead[3] = false
	if err := f.group.CatchUp(3); err != nil {
		t.Fatal(err)
	}
	if f.sms[2].snaps != 0 {
		t.Fatalf("peer 3 received %d snapshots, want 0 (within retention)", f.sms[2].snaps)
	}
	if got := f.sms[2].get("k09"); got != "v09" {
		t.Fatalf("peer 3 state k09 = %q, want v09", got)
	}
}

// TestRegressAppliedReplaysSuffix models a crashed store: its durable state
// regressed to an earlier applied index; after RegressApplied the group
// replays (or snapshots) the lost suffix on the next catch-up.
func TestRegressAppliedReplaysSuffix(t *testing.T) {
	f := newSnapFixture(t, 3, 50)
	if err := f.group.AcquireLease(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		f.propose(t, fmt.Sprintf("k%02d=v%02d", i, i))
	}
	// "Crash" peer 2 back to applied=5; wipe its post-5 state the way a
	// recovered store would have (keys k05..k11 lost).
	f.sms[1].mu.Lock()
	for i := 5; i < 12; i++ {
		delete(f.sms[1].state, fmt.Sprintf("k%02d", i))
	}
	f.sms[1].mu.Unlock()
	if err := f.group.RegressApplied(2, 5); err != nil {
		t.Fatal(err)
	}
	if ap, _ := f.group.AppliedIndex(2); ap != 5 {
		t.Fatalf("applied after regress = %d, want 5", ap)
	}
	if err := f.group.CatchUp(2); err != nil {
		t.Fatal(err)
	}
	if ap, _ := f.group.AppliedIndex(2); ap != 12 {
		t.Fatalf("applied after catch-up = %d, want 12", ap)
	}
	if got := f.sms[1].get("k11"); got != "v11" {
		t.Fatalf("peer 2 state k11 = %q, want v11 (replayed)", got)
	}
	// Regressing upward is a no-op.
	if err := f.group.RegressApplied(2, 99); err != nil {
		t.Fatal(err)
	}
	if ap, _ := f.group.AppliedIndex(2); ap != 12 {
		t.Fatalf("applied after upward regress = %d, want 12", ap)
	}
}

// TestRegressBehindTruncationSnapshots: combining both paths — a regressed
// peer whose replay target was truncated away goes through a snapshot.
func TestRegressBehindTruncationSnapshots(t *testing.T) {
	f := newSnapFixture(t, 3, 2)
	if err := f.group.AcquireLease(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		f.propose(t, fmt.Sprintf("k%02d=v%02d", i, i))
	}
	if err := f.group.RegressApplied(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.group.CatchUp(2); err != nil {
		t.Fatal(err)
	}
	if f.sms[1].snaps != 1 {
		t.Fatalf("peer 2 received %d snapshots, want 1", f.sms[1].snaps)
	}
	if ap, _ := f.group.AppliedIndex(2); ap != f.group.CommitIndex() {
		t.Fatalf("peer 2 applied %d, commit %d", ap, f.group.CommitIndex())
	}
}

// TestSeedStateLaggingPeerSnapshots: a group seeded as the continuation of a
// predecessor (a split's right half) treats a peer that was lagging in the
// predecessor as behind its truncation point, and heals it via snapshot —
// without seeding the peer would read as caught up and stay stale forever.
func TestSeedStateLaggingPeerSnapshots(t *testing.T) {
	f := newSnapFixture(t, 3, 2)
	// The predecessor committed through 10; peer 3 had applied only 4 of it.
	// Its state machine carries what it applied (the kvserver analog: the
	// right-span keys in its engine are stale).
	for _, sm := range f.sms[:2] {
		for i := 0; i < 10; i++ {
			sm.Apply(uint64(i+1), []byte(fmt.Sprintf("k%02d=new", i)))
		}
	}
	for i := 0; i < 4; i++ {
		f.sms[2].Apply(uint64(i+1), []byte(fmt.Sprintf("k%02d=new", i)))
	}
	f.group.SeedState(10, map[NodeID]uint64{1: 10, 2: 10, 3: 4})
	if got, want := f.group.CommitIndex(), uint64(10); got != want {
		t.Fatalf("commit = %d, want %d", got, want)
	}
	if got, want := truncatedIndex(f.group), uint64(10); got != want {
		t.Fatalf("truncated = %d, want %d", got, want)
	}
	// The seeded group keeps serving: the next proposal lands at index 11.
	if err := f.group.AcquireLease(1); err != nil {
		t.Fatal(err)
	}
	f.propose(t, "post=split")
	if got, want := f.group.CommitIndex(), uint64(11); got != want {
		t.Fatalf("commit after propose = %d, want %d", got, want)
	}
	if err := f.group.CatchUp(3); err != nil {
		t.Fatal(err)
	}
	if f.sms[2].snaps != 1 {
		t.Fatalf("peer 3 received %d snapshots, want 1", f.sms[2].snaps)
	}
	if ap, _ := f.group.AppliedIndex(3); ap != 11 {
		t.Fatalf("peer 3 applied %d, want 11", ap)
	}
	if got := f.sms[2].get("k09"); got != "new" {
		t.Fatalf("peer 3 state k09 = %q, want new (healed via snapshot)", got)
	}
	if got := f.sms[2].get("post"); got != "split" {
		t.Fatalf("peer 3 state post = %q, want split (replayed)", got)
	}
}

// TestSeedStateNoDonorBelowTruncation: in a seeded group a live peer below
// the truncation point must not donate snapshots — its state predates the
// seed point. With no caught-up donor, catch-up reports the typed error.
func TestSeedStateNoDonorBelowTruncation(t *testing.T) {
	f := newSnapFixture(t, 3, 2)
	// Everyone was lagging in the predecessor: the best peer (3, applied 7)
	// is still below the seed point and must not donate — its snapshot would
	// install pre-seed state that the replayable log cannot repair.
	f.group.SeedState(10, map[NodeID]uint64{1: 5, 2: 4, 3: 7})
	if err := f.group.CatchUp(2); err != ErrSnapshotUnavailable {
		t.Fatalf("CatchUp with best donor below truncation = %v, want ErrSnapshotUnavailable", err)
	}

	// Applied indexes above the seed commit are capped at it, and a peer at
	// the seed point is a valid donor.
	f2 := newSnapFixture(t, 3, 2)
	f2.group.SeedState(10, map[NodeID]uint64{1: 12})
	if ap, _ := f2.group.AppliedIndex(1); ap != 10 {
		t.Fatalf("applied capped = %d, want 10 (commit)", ap)
	}
	if err := f2.group.CatchUp(2); err != nil {
		t.Fatal(err)
	}
	if f2.sms[1].snaps != 1 {
		t.Fatalf("peer 2 received %d snapshots, want 1", f2.sms[1].snaps)
	}
}

// TestSnapshotUnavailableWithoutCapableDonor: a memSM (no Snapshot method)
// group never truncates into trouble... but if a peer regresses behind a
// truncated log with non-snapshot SMs, catch-up reports the typed error.
func TestSnapshotUnavailableWithoutCapableDonor(t *testing.T) {
	f := newFixture(t, 3)
	f.group.retention = 1
	if err := f.group.AcquireLease(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := f.group.Propose(1, []byte(fmt.Sprintf("c%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.group.RegressApplied(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.group.CatchUp(2); err != ErrSnapshotUnavailable {
		t.Fatalf("CatchUp = %v, want ErrSnapshotUnavailable", err)
	}
}

// truncatedIndex returns g's log truncation point (0 when never truncated).
func truncatedIndex(g *Group) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.truncated
}
