// Package faultinject is a deterministic, seed-driven fault injector. Code
// under test declares named sites ("raftlite.propose.err", "lsm.flush.error",
// ...) and consults them on the hot path; a Registry decides — from a seeded
// per-site schedule — whether each consultation fires. Because every site
// draws from its own RNG stream (forked from the master seed and the site
// name), the nth consultation of a site fires identically across runs
// regardless of how consultations of *different* sites interleave, so a
// single seed is a complete, byte-identical repro of a fault schedule (the
// FoundationDB-style simulation discipline).
//
// A nil *Registry is valid and inert: every consultation on it returns "no
// fault" without locking, so production wiring passes nil and pays only a
// pointer test per site.
package faultinject

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"
	"time"

	"crdbserverless/internal/randutil"
	"crdbserverless/internal/timeutil"
)

// Error is the failure injected at a site. It unwraps to nothing: an injected
// fault models an opaque infrastructure failure (dropped RPC, crashed disk),
// not any particular structured KV error.
type Error struct {
	// Site is the name of the site that fired.
	Site string
	// Fire is the 1-based count of fires at the site, so the message alone
	// pins a position in the schedule.
	Fire int
	// Retriable mirrors the site's Site.Retriable configuration.
	Retriable bool
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: injected fault at %s (fire %d)", e.Site, e.Fire)
}

// RetriableFault reports whether retry loops should treat the fault as
// transient. kvpb.IsRetriable recognizes this method.
func (e *Error) RetriableFault() bool { return e.Retriable }

// IsInjected reports whether err is (or wraps) an injected fault.
func IsInjected(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// Site configures one named fault site.
type Site struct {
	// Probability is the chance each eligible consultation fires, in [0, 1].
	Probability float64
	// After skips the first After consultations unconditionally (arming the
	// site partway into a run, or pinning "fail exactly the nth call" shapes
	// together with MaxFires).
	//lint:allow deadsurface test seam: TestAbortCleansUpPartiallyAppliedBatch fails exactly the second sub-batch
	After int
	// MaxFires caps the total number of fires; 0 means unlimited.
	//lint:allow deadsurface test seam: TestFinishBacksOffBetweenResolveAttempts fails a resolve a set number of times
	MaxFires int
	// Delay, when nonzero, is slept on the registry's clock at each fire —
	// write stalls and scheduling delays rather than hard failures.
	Delay time.Duration
	// Retriable marks injected errors as transient to kvpb.IsRetriable.
	Retriable bool
}

// siteState is the runtime state of an enabled site.
type siteState struct {
	cfg   Site
	rng   *rand.Rand
	hits  int
	fires int
}

// Registry owns the fault schedule for one deployment. All methods are safe
// for concurrent use and are no-ops on a nil receiver.
type Registry struct {
	seed  int64
	clock timeutil.Clock

	mu struct {
		sync.Mutex
		sites map[string]*siteState
		log   strings.Builder
	}
}

// New returns a Registry whose schedules derive from seed. Delays sleep on
// clock (nil means real time).
func New(seed int64, clock timeutil.Clock) *Registry {
	if clock == nil {
		clock = timeutil.NewRealClock()
	}
	r := &Registry{seed: seed, clock: clock}
	r.mu.sites = make(map[string]*siteState)
	return r
}

// siteSeed derives a site's RNG seed from the master seed and the site name,
// so per-site streams are independent of both each other and of the order
// sites are enabled in.
func (r *Registry) siteSeed(name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return r.seed ^ int64(h.Sum64())
}

// Enable arms a site. Re-enabling a site resets its counters and restarts its
// RNG stream.
func (r *Registry) Enable(name string, cfg Site) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mu.sites[name] = &siteState{cfg: cfg, rng: randutil.NewRand(r.siteSeed(name))}
}

// DisableAll disarms every site (the chaos harness's quiescence step). The
// schedule log is retained.
func (r *Registry) DisableAll() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mu.sites = make(map[string]*siteState)
}

// consult advances name's schedule by one consultation and reports whether it
// fired, along with the fire ordinal, configured delay, and retriability.
func (r *Registry) consult(name string) (fired bool, fire int, delay time.Duration, retriable bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.mu.sites[name]
	if !ok {
		return false, 0, 0, false
	}
	st.hits++
	if st.hits <= st.cfg.After {
		return false, 0, 0, false
	}
	if st.cfg.MaxFires > 0 && st.fires >= st.cfg.MaxFires {
		return false, 0, 0, false
	}
	if st.rng.Float64() >= st.cfg.Probability {
		return false, 0, 0, false
	}
	st.fires++
	fmt.Fprintf(&r.mu.log, "%s hit=%d fire=%d\n", name, st.hits, st.fires)
	return true, st.fires, st.cfg.Delay, st.cfg.Retriable
}

// Should consults the site and reports whether it fired, sleeping the site's
// configured delay first. Use it for faults that are conditions rather than
// errors (stalls, forced expirations, kills).
func (r *Registry) Should(name string) bool {
	if r == nil {
		return false
	}
	fired, _, delay, _ := r.consult(name)
	if fired && delay > 0 {
		r.clock.Sleep(delay)
	}
	return fired
}

// MaybeErr consults the site and returns an injected *Error when it fires
// (sleeping any configured delay first), or nil.
func (r *Registry) MaybeErr(name string) error {
	if r == nil {
		return nil
	}
	fired, fire, delay, retriable := r.consult(name)
	if !fired {
		return nil
	}
	if delay > 0 {
		r.clock.Sleep(delay)
	}
	return &Error{Site: name, Fire: fire, Retriable: retriable}
}

// Fires returns how many times the site has fired.
func (r *Registry) Fires(name string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.mu.sites[name]; ok {
		return st.fires
	}
	return 0
}

// Schedule returns the fault schedule so far, one line per fire in the order
// fires happened. Same seed + same workload ⇒ byte-identical schedules; the
// chaos harness's determinism test compares these directly.
func (r *Registry) Schedule() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.mu.log.String()
}
