package crdbserverless

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/allocsites.golden from this run")

const allocSitesGolden = "testdata/allocsites.golden"

// TestWholePathAllocSites says where the whole-path pins' allocations are.
// It runs the operations TestPointReadWholePathAllocs and
// TestNewOrderWholePathAllocs measure with every allocation profiled,
// credits each allocation to the innermost function of this module on its
// stack, and compares the per-operation counts with the golden file: a new
// allocation on the statement path shows up as a diff naming the function
// that makes it. Run with -update to rewrite the file.
func TestWholePathAllocSites(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	var b strings.Builder
	b.WriteString("# workload function allocs/op; go test -run TestWholePathAllocSites -update . rewrites it\n")
	for _, w := range []struct {
		name string
		warm func(*testing.T) func()
	}{
		{"point_read", warmPointRead},
		{"new_order", warmNewOrder},
	} {
		t.Run(w.name, func(t *testing.T) {
			sites := allocSites(200, w.warm(t))
			names := make([]string, 0, len(sites))
			for fn := range sites {
				names = append(names, fn)
			}
			sort.Strings(names)
			var total, small float64
			for _, fn := range names {
				total += sites[fn]
				if n := math.Round(sites[fn]); n > 0 {
					fmt.Fprintf(&b, "%s %s %d\n", w.name, fn, int(n))
				} else {
					small += sites[fn]
				}
			}
			t.Logf("%.2f allocations per run, %.2f of them at sites below 0.5 per run", total, small)
		})
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(allocSitesGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(allocSitesGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("allocation sites differ from %s (-want +got):\n%s", allocSitesGolden, lineDiff(string(want), got))
	}
}

// allocSites runs op once, then runs more times with every allocation
// profiled, and returns the allocations per run made under each function of
// this module. As testing.AllocsPerRun does, it measures on one P, so pooled
// objects come back from the pool the last run put them in.
//
// The collector is off while the runs are profiled. Allocations under 16
// bytes without pointers share 16-byte blocks, and the profile sees only
// the allocation that opens a block; a collection empties the open block at
// a point that varies from run to run, which would move those allocations
// from one site to another.
func allocSites(runs int, op func()) map[string]float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	op()
	runtime.GC() // publishes the profile as of now
	before := allocsByStack()
	gc := debug.SetGCPercent(-1)
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.MemProfileRate = rate
	debug.SetGCPercent(gc)
	runtime.GC()
	sites := map[string]float64{}
	for stk, n := range allocsByStack() {
		if d := n - before[stk]; d > 0 {
			sites[moduleFrame(stk)] += float64(d) / float64(runs)
		}
	}
	return sites
}

// allocsByStack returns the memory profile's allocation count per stack.
func allocsByStack() map[[32]uintptr]int64 {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	out := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		out[r.Stack0] += r.AllocObjects
	}
	return out
}

// moduleFrame names the innermost frame of stk inside this module, without
// the module path's "crdbserverless/" prefix.
func moduleFrame(stk [32]uintptr) string {
	pcs := stk[:]
	for i, pc := range pcs {
		if pc == 0 {
			pcs = pcs[:i]
			break
		}
	}
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		if strings.HasPrefix(f.Function, "crdbserverless.") {
			return f.Function
		}
		if fn, ok := strings.CutPrefix(f.Function, "crdbserverless/"); ok {
			return fn
		}
		if !more {
			return "(no frame of this module)"
		}
	}
}

// lineDiff lists the lines only want has as "-" and those only got has as
// "+".
func lineDiff(want, got string) string {
	count := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		count[l]++
	}
	for _, l := range strings.Split(got, "\n") {
		count[l]--
	}
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if count[l] > 0 {
			fmt.Fprintf(&b, "-%s\n", l)
			count[l]--
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if count[l] < 0 {
			fmt.Fprintf(&b, "+%s\n", l)
			count[l]++
		}
	}
	return b.String()
}
