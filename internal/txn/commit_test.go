package txn

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crdbserverless/internal/faultinject"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/metric"
	"crdbserverless/internal/raftlite"
	"crdbserverless/internal/tenantobs"
	"crdbserverless/internal/timeutil"
	"crdbserverless/internal/trace"
)

// commitEnv is a 3-node cluster whose raft entries and commit paths are
// counted. wrap, when non-nil, goes between the coordinator and the
// DistSender.
type commitEnv struct {
	cluster *kvserver.Cluster
	coord   *Coordinator
	entries *metric.Counter
	obs     *tenantobs.Plane
}

func newCommitEnv(t *testing.T, faults *faultinject.Registry, wrap func(Sender) Sender) *commitEnv {
	t.Helper()
	reg := metric.NewRegistry()
	cm := raftlite.NewCommitMetrics(reg)
	cheap := kvserver.CostConfig{ReadBatchOverhead: time.Nanosecond, WriteBatchOverhead: time.Nanosecond}
	var nodes []*kvserver.Node
	for i := 1; i <= 3; i++ {
		nodes = append(nodes, kvserver.NewNode(kvserver.NodeConfig{ID: kvserver.NodeID(i), VCPUs: 2, Cost: cheap}))
	}
	c, err := kvserver.NewCluster(kvserver.ClusterConfig{CommitMetrics: cm, Faults: faults}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	var sender Sender = kvserver.NewDistSender(c, kvserver.Identity{Tenant: 2}, kvserver.Config{Faults: faults})
	if wrap != nil {
		sender = wrap(sender)
	}
	env := &commitEnv{
		cluster: c,
		coord:   NewCoordinator(sender, c.Clock(), 2),
		entries: cm.Entries,
		obs:     tenantobs.New(tenantobs.Config{Registry: reg, Clock: timeutil.NewRealClock()}),
	}
	env.coord.SetFaults(faults)
	env.coord.SetObs(env.obs)
	return env
}

func (e *commitEnv) commits(path string) int64 {
	return e.coord.obs.TxnCommits(path)
}

func (e *commitEnv) commitRetries() int64 {
	return e.coord.obs.TxnCommitRetries()
}

// A transaction whose writes sit in one range commits in one replicated
// command; split the range between its keys and the same transaction costs
// two per range — an intent entry and a resolve entry.
func TestCommitOnePhaseVsTwoPhase(t *testing.T) {
	env := newCommitEnv(t, nil, nil)
	tr := trace.New(trace.Options{Clock: timeutil.NewRealClock(), Seed: 1})
	write := func() (entries int64, events []string) {
		t.Helper()
		root := tr.StartRoot("test")
		before := env.entries.Value()
		if err := env.coord.RunTxn(trace.ContextWithSpan(context.Background(), root),
			func(ctx context.Context, tx *Txn) error {
				for _, s := range []string{"a", "b", "y", "z"} {
					if err := tx.Put(ctx, k(s), []byte("v")); err != nil {
						return err
					}
				}
				return tx.Delete(ctx, k("c"))
			}); err != nil {
			t.Fatal(err)
		}
		root.Finish()
		for _, ev := range root.Children()[0].Events() {
			events = append(events, ev.Msg)
		}
		return env.entries.Value() - before, events
	}
	hasEvent := func(events []string, prefix string) bool {
		for _, ev := range events {
			if strings.HasPrefix(ev, prefix) {
				return true
			}
		}
		return false
	}

	before := batchCount(env.cluster)
	entries, events := write()
	if entries != 1 || env.commits("one_phase") != 1 || env.commits("two_phase") != 0 {
		t.Fatalf("single-range commit: %d raft entries, %d one-phase, %d two-phase; want 1, 1, 0",
			entries, env.commits("one_phase"), env.commits("two_phase"))
	}
	if got := batchCount(env.cluster) - before; got != 1 {
		t.Fatalf("single-range write transaction took %d KV batches, want 1", got)
	}
	if !hasEvent(events, "commit 1pc") || hasEvent(events, "resolve") {
		t.Fatalf("txn.run events = %q, want a commit 1pc event and no resolve", events)
	}

	if err := env.cluster.SplitAt(k("m")); err != nil {
		t.Fatal(err)
	}
	entries, events = write()
	if entries != 4 || env.commits("one_phase") != 1 || env.commits("two_phase") != 1 {
		t.Fatalf("two-range commit: %d raft entries, %d one-phase, %d two-phase; want 4, 1, 1",
			entries, env.commits("one_phase"), env.commits("two_phase"))
	}
	if !hasEvent(events, "commit 2pc txn=") || !hasEvent(events, "resolve 5 intents") {
		t.Fatalf("txn.run events = %q, want commit 2pc and resolve 5 intents", events)
	}
	for _, ev := range events {
		if strings.HasPrefix(ev, "commit 2pc") && !strings.HasSuffix(ev, "ranges=2") {
			t.Fatalf("event %q, want ranges=2", ev)
		}
	}
	assertNoIntents(t, env.cluster)
	if env.commits("read_only") != 0 || env.commitRetries() != 0 {
		t.Fatalf("read-only commits = %d, commit retries = %d; want 0, 0", env.commits("read_only"), env.commitRetries())
	}
}

// increment runs a read-increment-write transaction on the counter key and
// returns how often the closure ran.
func increment(t *testing.T, coord *Coordinator) (attempts int, err error) {
	t.Helper()
	err = coord.RunTxn(context.Background(), func(ctx context.Context, tx *Txn) error {
		attempts++
		v, _, err := tx.Get(ctx, k("counter"))
		if err != nil {
			return err
		}
		return tx.Put(ctx, k("counter"), []byte{v[0] + 1})
	})
	return attempts, err
}

func readCounter(t *testing.T, coord *Coordinator) byte {
	t.Helper()
	var out byte
	if err := coord.RunTxn(context.Background(), func(ctx context.Context, tx *Txn) error {
		v, _, err := tx.Get(ctx, k("counter"))
		if err == nil {
			out = v[0]
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func seedCounter(t *testing.T, coord *Coordinator, v byte) {
	t.Helper()
	if err := coord.RunTxn(context.Background(), func(ctx context.Context, tx *Txn) error {
		return tx.Put(ctx, k("counter"), []byte{v})
	}); err != nil {
		t.Fatal(err)
	}
}

// A one-phase commit leaves no intents, so a commit batch whose response is
// lost cannot be undone by aborting. The coordinator must neither report the
// committed transaction as failed nor run it again: the batch is re-sent as
// it is and the range recognises its first application.
func TestCommitSurvivesLostResponse(t *testing.T) {
	for _, site := range []string{"dist.subbatch.err", "txn.postsend"} {
		t.Run(site, func(t *testing.T) {
			faults := faultinject.New(7, nil)
			env := newCommitEnv(t, faults, nil)
			seedCounter(t, env.coord, 10)
			// Both sites are consulted once per batch: the closure's Get is
			// the first consult, the commit batch the second.
			faults.Enable(site, faultinject.Site{Probability: 1, After: 1, MaxFires: 1, Retriable: true})
			before := env.entries.Value()
			attempts, err := increment(t, env.coord)
			if err != nil || attempts != 1 {
				t.Fatalf("RunTxn = %v after %d runs of the closure, want nil after 1", err, attempts)
			}
			if faults.Fires(site) != 1 || env.commitRetries() != 1 {
				t.Fatalf("%s fired %d times, %d commit retries; want 1, 1", site, faults.Fires(site), env.commitRetries())
			}
			if got := readCounter(t, env.coord); got != 11 {
				t.Fatalf("counter = %d, want 11", got)
			}
			if got := env.entries.Value() - before; got != 1 {
				t.Fatalf("%d raft entries, want 1: the retry must not write again", got)
			}
		})
	}
}

// lossySender drops the response of the first commit batch it carries,
// calling between — if set — before the coordinator hears of the failure. With
// deliver false the batch is dropped on the way in instead, so it never
// applies.
type lossySender struct {
	inner   Sender
	deliver bool
	between func()
	lost    int
}

func (s *lossySender) Send(ctx context.Context, ba *kvpb.BatchRequest) (*kvpb.BatchResponse, error) {
	if ba.TxnWrites == 0 || s.lost > 0 {
		return s.inner.Send(ctx, ba)
	}
	s.lost++
	if s.deliver {
		if _, err := s.inner.Send(ctx, ba); err != nil {
			return nil, err
		}
	}
	if s.between != nil {
		s.between()
	}
	return nil, &faultinject.Error{Site: "test.lossy", Retriable: true}
}

// The first application must be recognised even when another transaction has
// since overwritten the key: the range looks for the version at exactly the
// transaction's timestamp, not for the newest one.
func TestCommitSurvivesLostResponseThenOverwrite(t *testing.T) {
	lossy := &lossySender{deliver: true}
	env := newCommitEnv(t, nil, func(s Sender) Sender { lossy.inner = s; return lossy })
	plain := NewCoordinator(lossy.inner, env.cluster.Clock(), 2)
	seedCounter(t, plain, 10)
	lossy.between = func() { seedCounter(t, plain, 50) }
	attempts, err := increment(t, env.coord)
	if err != nil || attempts != 1 {
		t.Fatalf("RunTxn = %v after %d runs of the closure, want nil after 1", err, attempts)
	}
	// The increment committed (10 -> 11) below the overwrite, which stands.
	if got := readCounter(t, env.coord); got != 50 {
		t.Fatalf("counter = %d, want the later overwrite's 50", got)
	}
}

// Without a first application the same conflict is a definite abort: the
// closure runs again, on the overwritten value.
func TestCommitRetryMeetingConflictAborts(t *testing.T) {
	lossy := &lossySender{deliver: false}
	env := newCommitEnv(t, nil, func(s Sender) Sender { lossy.inner = s; return lossy })
	plain := NewCoordinator(lossy.inner, env.cluster.Clock(), 2)
	seedCounter(t, plain, 10)
	lossy.between = func() { seedCounter(t, plain, 50) }
	attempts, err := increment(t, env.coord)
	if err != nil || attempts != 2 {
		t.Fatalf("RunTxn = %v after %d runs of the closure, want nil after 2", err, attempts)
	}
	if got := readCounter(t, env.coord); got != 51 {
		t.Fatalf("counter = %d, want 51", got)
	}
	assertNoIntents(t, env.cluster)
}

// alwaysLost delivers every commit batch and loses every response.
type alwaysLost struct {
	inner Sender
	sent  int
}

func (s *alwaysLost) Send(ctx context.Context, ba *kvpb.BatchRequest) (*kvpb.BatchResponse, error) {
	resp, err := s.inner.Send(ctx, ba)
	if err != nil || ba.TxnWrites == 0 {
		return resp, err
	}
	s.sent++
	return nil, &faultinject.Error{Site: "test.lossy", Retriable: true}
}

// When retrying does not settle it the outcome is reported as unknown, and
// RunTxn does not run the transaction again — here it did commit, once.
func TestAmbiguousCommitIsNotRetried(t *testing.T) {
	lossy := &alwaysLost{}
	env := newCommitEnv(t, nil, func(s Sender) Sender { lossy.inner = s; return lossy })
	plain := NewCoordinator(lossy.inner, env.cluster.Clock(), 2)
	seedCounter(t, plain, 10)
	attempts, err := increment(t, env.coord)
	var ace *kvpb.AmbiguousCommitError
	if !errors.As(err, &ace) || kvpb.IsRetriable(err) || attempts != 1 {
		t.Fatalf("RunTxn = %v after %d runs of the closure, want a non-retriable AmbiguousCommitError after 1", err, attempts)
	}
	if lossy.sent != maxFinishAttempts || env.commitRetries() != maxFinishAttempts-1 {
		t.Fatalf("commit batch sent %d times with %d retries counted, want %d and %d",
			lossy.sent, env.commitRetries(), maxFinishAttempts, maxFinishAttempts-1)
	}
	if got := readCounter(t, plain); got != 11 {
		t.Fatalf("counter = %d, want 11", got)
	}
}

// A DeleteRange cannot be buffered: the buffer goes out first, as intents, and
// the transaction's later writes follow it; reads keep seeing all of them and
// the commit resolves them.
func TestDeleteRangeEndsBuffering(t *testing.T) {
	env := newCommitEnv(t, nil, nil)
	ctx := context.Background()
	if err := env.coord.RunTxn(ctx, func(ctx context.Context, tx *Txn) error {
		for _, s := range []string{"d1", "d2", "e"} {
			if err := tx.Put(ctx, k(s), []byte("old")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := env.coord.RunTxn(ctx, func(ctx context.Context, tx *Txn) error {
		if err := tx.Put(ctx, k("d1"), []byte("buffered")); err != nil {
			return err
		}
		if err := tx.Put(ctx, k("e"), []byte("buffered")); err != nil {
			return err
		}
		if _, err := tx.Send(ctx, kvpb.Request{Method: kvpb.DeleteRange, Key: k("d"), EndKey: k("e")}); err != nil {
			return err
		}
		if err := tx.Put(ctx, k("f"), []byte("direct")); err != nil {
			return err
		}
		rows, err := tx.Scan(ctx, keys.Span{Key: k("d"), EndKey: k("g")}, 0)
		if err != nil {
			return err
		}
		if len(rows) != 2 || string(rows[0].Value) != "buffered" || string(rows[1].Value) != "direct" {
			t.Errorf("in-transaction scan = %v, want e=buffered f=direct", rows)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if env.commits("two_phase") != 1 {
		t.Fatalf("two-phase commits = %d, want 1", env.commits("two_phase"))
	}
	assertNoIntents(t, env.cluster)
	tx := env.coord.begin()
	defer tx.Abort(ctx)
	rows, err := tx.Scan(ctx, keys.MakeTenantSpan(2), 0)
	if err != nil || len(rows) != 2 || string(rows[0].Value) != "buffered" || string(rows[1].Value) != "direct" {
		t.Fatalf("committed rows = %v, %v; want e=buffered f=direct", rows, err)
	}
}

// The buffer is bounded: a transaction that writes more than maxBufferBytes
// sends what it holds as one intent batch and writes directly from there on.
func TestBufferOverflowEndsBuffering(t *testing.T) {
	env := newCommitEnv(t, nil, nil)
	ctx := context.Background()
	big := make([]byte, maxBufferBytes/4-64) // four fit, keys included; the fifth does not
	intents := func() int { return intentCount(t, env.cluster) }
	tx := env.coord.begin()
	for i, want := range []int{0, 0, 0, 0, 5, 6} {
		if err := tx.Put(ctx, k(string(rune('a'+i))), big); err != nil {
			t.Fatal(err)
		}
		if got := intents(); got != want {
			t.Fatalf("after %d quarter-cap writes: %d intents, want %d", i+1, got, want)
		}
	}
	if v, ok, err := tx.Get(ctx, k("a")); err != nil || !ok || len(v) != len(big) {
		t.Fatalf("read of a flushed write: %d bytes, %v, %v", len(v), ok, err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if intents() != 0 || env.commits("two_phase") != 1 {
		t.Fatalf("after commit: %d intents, %d two-phase commits; want 0, 1", intents(), env.commits("two_phase"))
	}
	rows, err := env.coord.begin().Scan(ctx, keys.MakeTenantSpan(2), 0)
	if err != nil || len(rows) != 6 {
		t.Fatalf("committed rows = %d, %v; want 6", len(rows), err)
	}
}

// Eight accounts over two ranges, four goroutines moving money between random
// pairs (read both, write both, read one back) and two summing every account
// in one transactional scan: each sum must be the initial total and every
// transfer must eventually commit. Transfers inside one range commit in one
// phase and transfers across the boundary in two, under contention — which
// the single-threaded chaos harness never produces.
func TestConcurrentTransfersConserveTotal(t *testing.T) {
	env := newCommitEnv(t, nil, nil)
	ctx := context.Background()
	const accounts, initial, movers, transfers = 8, 100, 4, 75
	acct := func(i int) keys.Key { return k("acct-" + string(rune('0'+i))) }
	if err := env.coord.RunTxn(ctx, func(ctx context.Context, tx *Txn) error {
		for i := 0; i < accounts; i++ {
			if err := tx.Put(ctx, acct(i), []byte{initial}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := env.cluster.SplitAt(acct(accounts / 2)); err != nil {
		t.Fatal(err)
	}

	var moving sync.WaitGroup
	var done atomic.Bool
	for m := 0; m < movers; m++ {
		moving.Add(1)
		go func(m int) {
			defer moving.Done()
			for i := 0; i < transfers; i++ {
				// A fixed schedule: every mover visits every pair of accounts,
				// inside a range and across the boundary.
				src := (m + i) % accounts
				dst := (src + 1 + i%(accounts-1)) % accounts
				if err := env.coord.RunTxn(ctx, func(ctx context.Context, tx *Txn) error {
					sv, _, err := tx.Get(ctx, acct(src))
					if err != nil {
						return err
					}
					dv, _, err := tx.Get(ctx, acct(dst))
					if err != nil {
						return err
					}
					if sv[0] == 0 || dv[0] == 255 {
						return nil
					}
					if err := tx.Put(ctx, acct(src), []byte{sv[0] - 1}); err != nil {
						return err
					}
					if err := tx.Put(ctx, acct(dst), []byte{dv[0] + 1}); err != nil {
						return err
					}
					back, _, err := tx.Get(ctx, acct(src))
					if err != nil {
						return err
					}
					if back[0] != sv[0]-1 {
						t.Errorf("transfer read back %d after writing %d", back[0], sv[0]-1)
					}
					return nil
				}); err != nil {
					t.Errorf("mover %d transfer %d: %v", m, i, err)
					return
				}
			}
		}(m)
	}
	var scanning sync.WaitGroup
	var sums atomic.Int64
	for s := 0; s < 2; s++ {
		scanning.Add(1)
		go func() {
			defer scanning.Done()
			for !done.Load() {
				if err := env.coord.RunTxn(ctx, func(ctx context.Context, tx *Txn) error {
					rows, err := tx.Scan(ctx, keys.Span{Key: k("acct-"), EndKey: k("acct.")}, 0)
					if err != nil {
						return err
					}
					total := 0
					for _, kv := range rows {
						total += int(kv.Value[0])
					}
					if len(rows) != accounts || total != accounts*initial {
						t.Errorf("scan saw %d accounts holding %d, want %d holding %d",
							len(rows), total, accounts, accounts*initial)
					}
					return nil
				}); err != nil {
					t.Errorf("scan: %v", err)
					return
				}
				sums.Add(1)
			}
		}()
	}
	moving.Wait()
	done.Store(true)
	scanning.Wait()
	if sums.Load() == 0 {
		t.Fatal("no scan completed")
	}
	if env.commits("one_phase") == 0 || env.commits("two_phase") == 0 {
		t.Fatalf("one-phase commits = %d, two-phase = %d; the test must exercise both",
			env.commits("one_phase"), env.commits("two_phase"))
	}
	assertNoIntents(t, env.cluster)
}
