// Chaos runs a seeded workload against a cluster with every fault-injection
// site armed, then checks consistency invariants after quiescence. It is the
// experiment counterpart of the per-site regression tests: instead of one
// carefully staged failure, the whole failure surface fires at once, and the
// guarantees that must survive are checked globally.
//
// Determinism: the same seed produces a byte-identical fault schedule and
// operation trace. Everything that influences control flow is drawn from
// seeded RNGs (the workload RNG and the registry's per-site streams), the
// workload is single-threaded, the DistSender runs with Parallelism 1, and
// lease durations are set far beyond the run length so wall-clock time never
// decides an outcome. The trace records operations and results, never
// timestamps.

package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"crdbserverless/internal/faultinject"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/lsm"
	"crdbserverless/internal/metric"
	"crdbserverless/internal/mvcc"
	"crdbserverless/internal/randutil"
	"crdbserverless/internal/tenantcost"
	"crdbserverless/internal/tenantobs"
	"crdbserverless/internal/timeutil"
	"crdbserverless/internal/txn"
)

// ChaosOptions configure a chaos run.
type ChaosOptions struct {
	// Seed drives the workload and the fault schedule. The same seed
	// reproduces the run exactly.
	Seed int64
	// Ops is the number of workload operations. Defaults to 5000.
	Ops int
	// Nodes is the KV cluster size. Defaults to 5.
	Nodes int
	// MergeStorm boosts the split and merge sites an order of magnitude so
	// the range directory churns in both directions at once while the rest
	// of the fault surface stays armed — the regression surface for the
	// split/merge/maintenance-index machinery.
	MergeStorm bool
}

// ChaosResult is the outcome of a chaos run.
type ChaosResult struct {
	Seed    int64
	Ops     int
	Commits int
	Aborts  int
	// OnePhaseCommits, TwoPhaseCommits and CommitRetries say which commit
	// paths the storm exercised: transactions a single range committed in one
	// replicated command, transactions committed by intents and resolution
	// (their writes crossed a range boundary, or a DeleteRange ended
	// buffering), and commit batches re-sent after a lost response.
	OnePhaseCommits int64
	TwoPhaseCommits int64
	CommitRetries   int64
	// Unavailable counts operations that errored through their whole retry
	// budget — availability loss, which chaos tolerates; consistency loss,
	// which it does not, lands in Violations.
	Unavailable int
	Splits      int
	// Merges counts chaos.merge fires that actually collapsed a range pair
	// (an ineligible pair — tenant boundary, mid-move replica mismatch — is
	// a skip, not a merge).
	Merges int
	Flaps  int
	// Crashes counts store.crash events: a node's store killed mid-storm
	// (losing its unsynced WAL tail), recovered from durable state, and
	// reconciled with its replication groups.
	Crashes int
	// RaftSnapshots counts replicas caught up via state snapshot — crashed
	// stores that fell behind the truncated raft log.
	RaftSnapshots int64
	TotalFires    int
	// Violations lists every invariant breach found after quiescence (and
	// any mid-run read that disagreed with the model). Empty means the run
	// was consistent.
	Violations []string
	// Schedule is the registry's fault log: one line per fire, in order.
	Schedule string
	// Trace is the harness's operation log: one line per workload op and
	// harness event, with outcomes but no timestamps.
	Trace string
	Table *Table
}

// chaosSiteConfigs is the full armed surface, in a fixed order for reporting.
var chaosSiteConfigs = []struct {
	name string
	cfg  faultinject.Site
}{
	{"dist.subbatch.err", faultinject.Site{Probability: 0.05, Retriable: true}},
	// Consulted only on META cache misses (splits, evictions), so a high
	// probability still means few fires — but they do happen.
	{"dist.desc.stale", faultinject.Site{Probability: 0.5}},
	{"raftlite.propose.err", faultinject.Site{Probability: 0.03, Retriable: true}},
	{"raftlite.propose.delay", faultinject.Site{Probability: 0.02, Delay: 20 * time.Microsecond}},
	{"raftlite.lease.expire", faultinject.Site{Probability: 0.01}},
	{"lsm.flush.error", faultinject.Site{Probability: 0.2}},
	{"lsm.compact.error", faultinject.Site{Probability: 0.2}},
	{"lsm.write.stall", faultinject.Site{Probability: 0.01, Delay: 50 * time.Microsecond}},
	// Value-log sites: a failed append degrades to inline storage (logically
	// transparent, so replicas with divergent fault streams still converge),
	// and a GC error aborts a rewrite round mid-file — invariant 1 (acked
	// writes readable) must hold through both.
	{"lsm.vlog.write.error", faultinject.Site{Probability: 0.05}},
	{"lsm.vlog.gc.error", faultinject.Site{Probability: 0.3}},
	{"txn.postsend", faultinject.Site{Probability: 0.01, Retriable: true}},
	// Harness-level events: liveness flaps (cordon a node for a stretch of
	// ops) and range splits, drawn from the same registry so they appear in
	// the schedule.
	{"chaos.flap", faultinject.Site{Probability: 0.02}},
	{"chaos.split", faultinject.Site{Probability: 0.005}},
	// Merge the range containing a workload key back into its left
	// neighbor. At the default rate merges trail splits, so the directory
	// still grows; the merge-storm profile inverts that.
	{"chaos.merge", faultinject.Site{Probability: 0.005}},
	// Kill a store mid-storm: cordon the node, tear its directory at the
	// fault-injected offset (unsynced WAL suffix lost), reopen from durable
	// state, and regress its replication groups to what storage retained.
	{"store.crash", faultinject.Site{Probability: 0.003}},
}

const chaosTenant = keys.TenantID(2)
const chaosKeyCount = 200

func chaosKeyName(i int) string { return fmt.Sprintf("key-%03d", i) }

func chaosKey(name string) keys.Key {
	return append(keys.MakeTenantPrefix(chaosTenant), []byte(name)...)
}

// chaosErrClass buckets an error for the trace: the class is deterministic
// across runs even when the error text is not.
func chaosErrClass(err error) string {
	switch {
	case faultinject.IsInjected(err):
		return "injected"
	case kvpb.IsRetriable(err):
		return "retriable"
	default:
		return "error"
	}
}

// Chaos runs the seeded chaos workload and invariant checks.
func Chaos(ctx context.Context, opts ChaosOptions) (*ChaosResult, error) {
	if opts.Ops == 0 {
		opts.Ops = 5000
	}
	if opts.Nodes == 0 {
		opts.Nodes = 5
	}
	clock := timeutil.NewRealClock()
	reg := faultinject.New(opts.Seed, clock)
	cheap := kvserver.CostConfig{ReadBatchOverhead: time.Nanosecond, WriteBatchOverhead: time.Nanosecond}
	var nodes []*kvserver.Node
	for i := 1; i <= opts.Nodes; i++ {
		nodes = append(nodes, kvserver.NewNode(kvserver.NodeConfig{
			ID:    kvserver.NodeID(i),
			VCPUs: 2,
			Clock: clock,
			Cost:  cheap,
			// A tiny memtable keeps flushes and compactions — and their
			// fault sites — on the hot path of a short run, and aggressive
			// value separation with tiny log segments plus both caches puts
			// the vlog GC and invalidation machinery in the storm's blast
			// radius too. Every store is durable with a grouped-sync WAL:
			// store.crash tears the unsynced suffix and recovers from the
			// rest, so crash recovery itself is inside the blast radius.
			LSM: lsm.Options{
				MemTableSize:    8 << 10,
				Faults:          reg,
				ValueThreshold:  4,
				VlogFileSize:    4 << 10,
				BlockCacheBytes: 32 << 10,
				HotKeyCacheSize: 64,
				Durable:         lsm.NewDir(),
				WALSegmentSize:  4 << 10,
				WALBytesPerSync: 512,
			},
		}))
	}
	cluster, err := kvserver.NewCluster(kvserver.ClusterConfig{
		Clock:  clock,
		Faults: reg,
		// Leases must outlive the run by a wide margin: natural expiration
		// would tie control flow to wall-clock speed. All lease churn comes
		// from injected expirations and liveness flaps.
		LeaseDuration: time.Hour,
		// A short raft log forces a crashed store that missed more than a
		// handful of commits to rejoin via state snapshot, not log replay.
		RaftLogRetention: 8,
	}, nodes)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	ds := kvserver.NewDistSender(cluster, kvserver.Identity{Tenant: chaosTenant},
		kvserver.Config{Parallelism: 1, Faults: reg})
	coord := txn.NewCoordinator(ds, cluster.Clock(), chaosTenant)
	coord.SetFaults(reg)
	obs := tenantobs.New(tenantobs.Config{Registry: metric.NewRegistry(), Clock: clock})
	coord.SetObs(obs)
	buckets := tenantcost.NewBucketServer(clock)
	buckets.SetQuota(chaosTenant, 8)
	bucket := tenantcost.NewNodeBucket(buckets, clock, chaosTenant, 1)

	for _, s := range chaosSiteConfigs {
		cfg := s.cfg
		if opts.MergeStorm {
			switch s.name {
			case "chaos.split":
				cfg.Probability = 0.03
			case "chaos.merge":
				cfg.Probability = 0.05
			}
		}
		reg.Enable(s.name, cfg)
	}

	res := &ChaosResult{Seed: opts.Seed, Ops: opts.Ops}
	var tr strings.Builder
	model := make(map[string]string)
	rng := randutil.NewRand(opts.Seed)

	var cordoned kvserver.NodeID
	flapRemaining := 0
	nextFlap := 0
	var crashed kvserver.NodeID
	crashRemaining := 0
	nextCrash := 0

	for op := 0; op < opts.Ops; op++ {
		if op%16 == 0 {
			cluster.Tick()
		}
		// Harness events first, so their schedule position is op-aligned.
		// Flaps and crashes each cordon a node; at most one of each is in
		// flight, and they never overlap (two dead nodes could cost quorum).
		if reg.Should("chaos.flap") && cordoned == 0 && crashed == 0 {
			cordoned = kvserver.NodeID(nextFlap%opts.Nodes) + 1
			nextFlap++
			flapRemaining = 25
			if n, ok := cluster.Node(cordoned); ok {
				n.SetCordoned(true)
			}
			res.Flaps++
			fmt.Fprintf(&tr, "op=%d flap cordon node=%d\n", op, cordoned)
		} else if flapRemaining > 0 {
			if flapRemaining--; flapRemaining == 0 {
				if n, ok := cluster.Node(cordoned); ok {
					n.SetCordoned(false)
				}
				fmt.Fprintf(&tr, "op=%d flap uncordon node=%d\n", op, cordoned)
				cordoned = 0
			}
		}
		// A store crash kills the node's engine mid-storm: the directory
		// loses its unsynced suffix (up to tear bytes of torn WAL tail), the
		// engine reopens from durable state, and the replication groups
		// regress the replica to its durably applied indexes. The node stays
		// cordoned for a stretch so it genuinely falls behind — with the
		// short log retention, far enough to need a snapshot.
		if reg.Should("store.crash") && crashed == 0 && cordoned == 0 {
			crashed = kvserver.NodeID(nextCrash%opts.Nodes) + 1
			nextCrash++
			crashRemaining = 25
			tear := rng.Intn(64)
			if n, ok := cluster.Node(crashed); ok {
				n.SetCordoned(true)
				if err := n.Crash(tear); err != nil {
					res.Violations = append(res.Violations,
						fmt.Sprintf("op %d: store crash on node %d failed: %v", op, crashed, err))
				} else if err := cluster.RecoverNode(crashed); err != nil {
					res.Violations = append(res.Violations,
						fmt.Sprintf("op %d: recovering node %d failed: %v", op, crashed, err))
				}
			}
			res.Crashes++
			fmt.Fprintf(&tr, "op=%d crash node=%d tear=%d\n", op, crashed, tear)
		} else if crashRemaining > 0 {
			if crashRemaining--; crashRemaining == 0 {
				if n, ok := cluster.Node(crashed); ok {
					n.SetCordoned(false)
				}
				fmt.Fprintf(&tr, "op=%d crash rejoin node=%d\n", op, crashed)
				crashed = 0
			}
		}
		if reg.Should("chaos.split") {
			name := chaosKeyName(rng.Intn(chaosKeyCount))
			if err := cluster.SplitAt(chaosKey(name)); err == nil {
				res.Splits++
				fmt.Fprintf(&tr, "op=%d split at %s\n", op, name)
			}
		}
		if reg.Should("chaos.merge") {
			name := chaosKeyName(rng.Intn(chaosKeyCount))
			merged, err := cluster.MergeAt(chaosKey(name))
			switch {
			case err != nil:
				// No catch-up donor (every replica of the pair is down) is an
				// availability outcome, same class as an unavailable op.
				fmt.Fprintf(&tr, "op=%d merge at %s -> unavailable\n", op, name)
			case merged:
				res.Merges++
				fmt.Fprintf(&tr, "op=%d merge at %s -> merged\n", op, name)
			default:
				fmt.Fprintf(&tr, "op=%d merge at %s -> skipped\n", op, name)
			}
		}

		switch r := rng.Float64(); {
		case r < 0.55:
			chaosWrite(ctx, op, rng, coord, bucket, model, res, &tr)
		case r < 0.90:
			chaosRead(ctx, op, rng, coord, model, res, &tr)
		default:
			chaosScan(ctx, op, rng, coord, model, res, &tr)
		}
	}

	// Quiescence: heal everything, then check what must hold.
	if cordoned != 0 {
		if n, ok := cluster.Node(cordoned); ok {
			n.SetCordoned(false)
		}
	}
	if crashed != 0 {
		if n, ok := cluster.Node(crashed); ok {
			n.SetCordoned(false)
		}
	}
	for _, s := range chaosSiteConfigs {
		res.TotalFires += reg.Fires(s.name)
	}
	siteFires := make(map[string]int, len(chaosSiteConfigs))
	for _, s := range chaosSiteConfigs {
		siteFires[s.name] = reg.Fires(s.name)
	}
	reg.DisableAll()
	cluster.Tick()
	if err := cluster.CatchUpReplicas(); err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("catch-up failed: %v", err))
	}

	chaosCheckInvariants(ctx, cluster, coord, buckets, bucket, model, res)

	res.RaftSnapshots = cluster.RaftSnapshots()
	res.OnePhaseCommits = obs.TxnCommits(chaosTenant.String(), "one_phase")
	res.TwoPhaseCommits = obs.TxnCommits(chaosTenant.String(), "two_phase")
	res.CommitRetries = obs.TxnCommitRetries(chaosTenant.String())
	res.Schedule = reg.Schedule()
	res.Trace = tr.String()
	res.Table = chaosTable(res, siteFires)
	return res, nil
}

// chaosWrite runs one write transaction of 1-4 mutations, updating the model
// only when the commit was acked.
func chaosWrite(ctx context.Context, op int, rng interface {
	Intn(int) int
	Float64() float64
}, coord *txn.Coordinator, bucket *tenantcost.NodeBucket,
	model map[string]string, res *ChaosResult, tr *strings.Builder) {
	type mut struct {
		del, rangeDel bool
		key, endKey   string
		val           string
	}
	nm := 1 + rng.Intn(4)
	muts := make([]mut, 0, nm)
	for i := 0; i < nm; i++ {
		p := rng.Float64()
		ki := rng.Intn(chaosKeyCount)
		switch {
		case p < 0.80:
			muts = append(muts, mut{key: chaosKeyName(ki), val: fmt.Sprintf("v%d.%d", op, i)})
		case p < 0.95:
			muts = append(muts, mut{del: true, key: chaosKeyName(ki)})
		default:
			muts = append(muts, mut{rangeDel: true, key: chaosKeyName(ki), endKey: chaosKeyName(ki + 3)})
		}
	}
	err := coord.RunTxn(ctx, func(ctx context.Context, tx *txn.Txn) error {
		for _, m := range muts {
			switch {
			case m.rangeDel:
				if _, err := tx.Send(ctx, kvpb.Request{
					Method: kvpb.DeleteRange, Key: chaosKey(m.key), EndKey: chaosKey(m.endKey),
				}); err != nil {
					return err
				}
			case m.del:
				if err := tx.Delete(ctx, chaosKey(m.key)); err != nil {
					return err
				}
			default:
				if err := tx.Put(ctx, chaosKey(m.key), []byte(m.val)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		res.Aborts++
		res.Unavailable++
		fmt.Fprintf(tr, "op=%d write n=%d -> abort class=%s\n", op, len(muts), chaosErrClass(err))
		return
	}
	res.Commits++
	for _, m := range muts {
		switch {
		case m.rangeDel:
			for name := range model {
				if m.key <= name && name < m.endKey {
					delete(model, name)
				}
			}
		case m.del:
			delete(model, m.key)
		default:
			model[m.key] = m.val
		}
	}
	// Meter the committed work; the invariant check asserts the counters
	// never go negative.
	bucket.Consume(float64(len(muts)))
	fmt.Fprintf(tr, "op=%d write n=%d -> commit\n", op, len(muts))
}

// chaosRead point-reads one key and compares against the model.
func chaosRead(ctx context.Context, op int, rng interface{ Intn(int) int },
	coord *txn.Coordinator, model map[string]string, res *ChaosResult, tr *strings.Builder) {
	name := chaosKeyName(rng.Intn(chaosKeyCount))
	var got string
	var found bool
	err := coord.RunTxn(ctx, func(ctx context.Context, tx *txn.Txn) error {
		v, ok, err := tx.Get(ctx, chaosKey(name))
		if err != nil {
			return err
		}
		got, found = string(v), ok
		return nil
	})
	if err != nil {
		res.Unavailable++
		fmt.Fprintf(tr, "op=%d read %s -> unavailable class=%s\n", op, name, chaosErrClass(err))
		return
	}
	want, wantOK := model[name]
	if found != wantOK || (found && got != want) {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"op %d: read %s = %q (exists=%v), model says %q (exists=%v)",
			op, name, got, found, want, wantOK))
	}
	fmt.Fprintf(tr, "op=%d read %s -> ok\n", op, name)
}

// chaosScan scans a subrange and compares every row against the model.
func chaosScan(ctx context.Context, op int, rng interface{ Intn(int) int },
	coord *txn.Coordinator, model map[string]string, res *ChaosResult, tr *strings.Builder) {
	lo := rng.Intn(chaosKeyCount)
	hi := lo + 1 + rng.Intn(20)
	span := keys.Span{Key: chaosKey(chaosKeyName(lo)), EndKey: chaosKey(chaosKeyName(hi))}
	var rows []kvpb.KeyValue
	err := coord.RunTxn(ctx, func(ctx context.Context, tx *txn.Txn) error {
		var err error
		rows, err = tx.Scan(ctx, span, 0)
		return err
	})
	if err != nil {
		res.Unavailable++
		fmt.Fprintf(tr, "op=%d scan [%s,%s) -> unavailable class=%s\n",
			op, chaosKeyName(lo), chaosKeyName(hi), chaosErrClass(err))
		return
	}
	expect := modelRange(model, chaosKeyName(lo), chaosKeyName(hi))
	if len(rows) != len(expect) {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"op %d: scan [%s,%s) returned %d rows, model has %d",
			op, chaosKeyName(lo), chaosKeyName(hi), len(rows), len(expect)))
	} else {
		for i, kv := range rows {
			name := string(kv.Key[len(keys.MakeTenantPrefix(chaosTenant)):])
			if name != expect[i] || string(kv.Value) != model[expect[i]] {
				res.Violations = append(res.Violations, fmt.Sprintf(
					"op %d: scan row %d = %s=%q, model row %s=%q",
					op, i, name, kv.Value, expect[i], model[expect[i]]))
				break
			}
		}
	}
	fmt.Fprintf(tr, "op=%d scan [%s,%s) -> %d rows\n", op, chaosKeyName(lo), chaosKeyName(hi), len(rows))
}

// modelRange returns the model's keys in [lo, hi), sorted.
func modelRange(model map[string]string, lo, hi string) []string {
	var out []string
	for name := range model {
		if lo <= name && name < hi {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// chaosCheckInvariants runs the post-quiescence checks.
func chaosCheckInvariants(ctx context.Context, cluster *kvserver.Cluster,
	coord *txn.Coordinator, buckets *tenantcost.BucketServer,
	bucket *tenantcost.NodeBucket, model map[string]string, res *ChaosResult) {
	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}

	// 1. Every acked committed write is readable with its exact value.
	for _, name := range modelRange(model, "", "\xff") {
		var got string
		var found bool
		err := coord.RunTxn(ctx, func(ctx context.Context, tx *txn.Txn) error {
			v, ok, err := tx.Get(ctx, chaosKey(name))
			if err != nil {
				return err
			}
			got, found = string(v), ok
			return nil
		})
		if err != nil {
			violate("final read %s failed: %v", name, err)
			continue
		}
		if !found || got != model[name] {
			violate("acked write lost: %s = %q (exists=%v), want %q", name, got, found, model[name])
		}
	}
	// 2. A full scan returns exactly the model: nothing unacked or aborted
	// is visible, nothing acked is missing.
	var rows []kvpb.KeyValue
	err := coord.RunTxn(ctx, func(ctx context.Context, tx *txn.Txn) error {
		var err error
		rows, err = tx.Scan(ctx, keys.MakeTenantSpan(chaosTenant), 0)
		return err
	})
	if err != nil {
		violate("final scan failed: %v", err)
	} else {
		expect := modelRange(model, "", "\xff")
		if len(rows) != len(expect) {
			violate("final scan has %d rows, model has %d", len(rows), len(expect))
		} else {
			prefix := len(keys.MakeTenantPrefix(chaosTenant))
			for i, kv := range rows {
				name := string(kv.Key[prefix:])
				if name != expect[i] || string(kv.Value) != model[expect[i]] {
					violate("final scan row %d = %s=%q, model row %s=%q",
						i, name, kv.Value, expect[i], model[expect[i]])
					break
				}
			}
		}
	}
	// 3. No orphaned intents anywhere, from any transaction.
	for _, n := range cluster.Nodes() {
		iks, err := mvcc.IntentKeys(n.Engine(), keys.MakeTenantSpan(chaosTenant), 0)
		if err != nil {
			violate("intent sweep on node %d failed: %v", n.ID(), err)
			continue
		}
		if len(iks) > 0 {
			violate("node %d holds %d orphaned intents (first: %s)", n.ID(), len(iks), iks[0])
		}
	}
	// 4. Replication converged: every replica applied up to its range's
	// commit index.
	for _, st := range cluster.ReplicaStatuses() {
		if st.Applied != st.Commit {
			violate("range %d replica on node %d applied=%d commit=%d",
				st.RangeID, st.Node, st.Applied, st.Commit)
		}
	}
	// 5. The range directory partitions the keyspace: spans are contiguous,
	// non-overlapping, and cover MinKey.Next() through MaxKey. Splits and
	// merges racing with crashes must never leave a gap (unroutable keys) or
	// an overlap (two ranges both authoritative for a key).
	descs := cluster.Descriptors()
	if len(descs) == 0 {
		violate("directory is empty")
	} else {
		if !descs[0].Span.Key.Equal(keys.MinKey.Next()) {
			violate("first range starts at %s, want %s", descs[0].Span.Key, keys.MinKey.Next())
		}
		if !descs[len(descs)-1].Span.EndKey.Equal(keys.MaxKey) {
			violate("last range ends at %s, want %s", descs[len(descs)-1].Span.EndKey, keys.MaxKey)
		}
		for i, d := range descs {
			if !d.Span.Key.Less(d.Span.EndKey) {
				violate("range %d span [%s,%s) is empty or inverted", d.RangeID, d.Span.Key, d.Span.EndKey)
			}
			if i > 0 && !descs[i-1].Span.EndKey.Equal(d.Span.Key) {
				violate("directory gap/overlap between [%s,%s) and [%s,%s)",
					descs[i-1].Span.Key, descs[i-1].Span.EndKey, d.Span.Key, d.Span.EndKey)
			}
		}
	}
	// 6. Tenant cost accounting never goes negative.
	if avail := buckets.Available(chaosTenant); avail < 0 {
		violate("tenant token bucket negative: %f", avail)
	}
	if c := bucket.Consumed(); c < 0 {
		violate("consumed tokens negative: %f", c)
	}
	if l := bucket.LocalTokens(); l < 0 {
		violate("local token buffer negative: %f", l)
	}
}

// chaosTable renders the run summary.
func chaosTable(res *ChaosResult, siteFires map[string]int) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Chaos (seed=%d, ops=%d)", res.Seed, res.Ops),
		Columns: []string{"metric", "value"},
	}
	add := func(k string, v any) { t.Rows = append(t.Rows, []string{k, fmt.Sprint(v)}) }
	add("commits", res.Commits)
	add("aborts", res.Aborts)
	add("one-phase commits", res.OnePhaseCommits)
	add("two-phase commits", res.TwoPhaseCommits)
	add("commit retries", res.CommitRetries)
	add("unavailable ops", res.Unavailable)
	add("splits", res.Splits)
	add("merges", res.Merges)
	add("liveness flaps", res.Flaps)
	add("store crashes", res.Crashes)
	add("raft snapshots", res.RaftSnapshots)
	add("fault fires (total)", res.TotalFires)
	for _, s := range chaosSiteConfigs {
		add("  "+s.name, siteFires[s.name])
	}
	add("violations", len(res.Violations))
	return t
}
