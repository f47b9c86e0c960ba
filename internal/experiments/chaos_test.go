package experiments

import (
	"context"
	"testing"
)

// A short chaos run must complete with zero invariant violations and must
// actually have exercised the fault surface.
func TestChaosSmoke(t *testing.T) {
	res, err := Chaos(context.Background(), ChaosOptions{Seed: 1, Ops: 400})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.Commits == 0 {
		t.Fatal("chaos run committed nothing")
	}
	if res.TotalFires == 0 {
		t.Fatal("chaos run fired no faults")
	}
	// Both commit paths, and the re-send of a commit batch after a lost
	// response, must have run under the storm, and every commit took one of
	// the two paths.
	if res.OnePhaseCommits == 0 || res.TwoPhaseCommits == 0 || res.CommitRetries == 0 {
		t.Fatalf("commit paths not exercised: one-phase=%d two-phase=%d retries=%d",
			res.OnePhaseCommits, res.TwoPhaseCommits, res.CommitRetries)
	}
	if got := res.OnePhaseCommits + res.TwoPhaseCommits; got != int64(res.Commits) {
		t.Fatalf("%d one-phase + %d two-phase commits, but %d transactions committed",
			res.OnePhaseCommits, res.TwoPhaseCommits, res.Commits)
	}
}

// The same seed must produce a byte-identical fault schedule and operation
// trace: that is what makes a chaos failure reproducible.
func TestChaosDeterminism(t *testing.T) {
	ctx := context.Background()
	a, err := Chaos(ctx, ChaosOptions{Seed: 42, Ops: 300})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Chaos(ctx, ChaosOptions{Seed: 42, Ops: 300})
	if err != nil {
		t.Fatal(err)
	}
	if a.Schedule != b.Schedule {
		t.Errorf("fault schedules diverge for the same seed:\n--- run 1 ---\n%s--- run 2 ---\n%s", a.Schedule, b.Schedule)
	}
	if a.Trace != b.Trace {
		t.Errorf("operation traces diverge for the same seed:\n--- run 1 ---\n%s--- run 2 ---\n%s", a.Trace, b.Trace)
	}
	if a.Commits != b.Commits || a.Aborts != b.Aborts || a.TotalFires != b.TotalFires ||
		a.OnePhaseCommits != b.OnePhaseCommits || a.CommitRetries != b.CommitRetries {
		t.Errorf("summary counters diverge: run1={c:%d a:%d f:%d} run2={c:%d a:%d f:%d}",
			a.Commits, a.Aborts, a.TotalFires, b.Commits, b.Aborts, b.TotalFires)
	}
}

// The full-length run from the acceptance criteria; skipped under -short.
func TestChaosFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("5000-op chaos run skipped in -short mode")
	}
	res, err := Chaos(context.Background(), ChaosOptions{Seed: 7, Ops: 5000})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.Commits == 0 || res.TotalFires == 0 {
		t.Fatalf("run did not exercise the system: commits=%d fires=%d", res.Commits, res.TotalFires)
	}
}

// The merge-storm profile churns the directory in both directions while the
// full fault surface stays armed. The run must stay consistent, and both
// split and merge machinery must actually fire.
func TestMergeStormSmoke(t *testing.T) {
	res, err := Chaos(context.Background(), ChaosOptions{Seed: 11, Ops: 600, MergeStorm: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.Splits == 0 || res.Merges == 0 {
		t.Fatalf("storm did not churn the directory: splits=%d merges=%d", res.Splits, res.Merges)
	}
	if res.Commits == 0 {
		t.Fatal("storm run committed nothing")
	}
}

// Merge storms must replay byte-identically from the seed, like every other
// chaos profile — merges are driven by the registry and cluster state, never
// by wall-clock load signals.
func TestMergeStormDeterminism(t *testing.T) {
	ctx := context.Background()
	a, err := Chaos(ctx, ChaosOptions{Seed: 23, Ops: 400, MergeStorm: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Chaos(ctx, ChaosOptions{Seed: 23, Ops: 400, MergeStorm: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Schedule != b.Schedule {
		t.Errorf("fault schedules diverge for the same seed:\n--- run 1 ---\n%s--- run 2 ---\n%s", a.Schedule, b.Schedule)
	}
	if a.Trace != b.Trace {
		t.Errorf("operation traces diverge for the same seed:\n--- run 1 ---\n%s--- run 2 ---\n%s", a.Trace, b.Trace)
	}
	if a.Merges != b.Merges || a.Splits != b.Splits {
		t.Errorf("directory churn diverges: run1={s:%d m:%d} run2={s:%d m:%d}",
			a.Splits, a.Merges, b.Splits, b.Merges)
	}
}
