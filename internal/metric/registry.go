package metric

import (
	"fmt"
	"regexp"
	"sort"
	"sync"
)

// NameRE is the metric naming convention: lowercase dot-separated
// `subsystem.name`, snake_case within each component, at least two
// components. crdb-lint's metricnames check enforces it statically at every
// registration site; MustRegister enforces it at runtime for names built
// dynamically behind a //lint:allow.
var NameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$`)

// Registry maps stable metric names to metric objects (*Counter, *Gauge,
// *Histogram, labeled vectors). Each subsystem registers its metrics once at
// construction; registering the same name twice panics, because a second
// registration always means two components believe they own the metric.
// Safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]any
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

// MustRegister adds m under name, panicking on a malformed name or a
// duplicate registration. Misregistration is a programming error caught at
// component construction (and statically by crdb-lint), not a runtime
// condition worth an error path.
func (r *Registry) MustRegister(name string, m any) {
	if !NameRE.MatchString(name) {
		panic(fmt.Sprintf("metric: name %q does not follow the subsystem.name convention", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.metrics[name]; ok {
		panic(fmt.Sprintf("metric: %q registered twice", name))
	}
	r.metrics[name] = m
}

// NewCounter registers and returns a fresh Counter.
func (r *Registry) NewCounter(name string) *Counter {
	c := &Counter{}
	r.MustRegister(name, c)
	return c
}

// Get returns the metric registered under name, or nil.
func (r *Registry) Get(name string) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.metrics[name]
}

// Names returns every registered name, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Each calls fn for every registered metric in name order.
func (r *Registry) Each(fn func(name string, m any)) {
	for _, n := range r.Names() {
		if m := r.Get(n); m != nil {
			fn(n, m)
		}
	}
}
