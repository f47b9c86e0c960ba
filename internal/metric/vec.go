package metric

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// This file implements labeled metric vectors: families of child metrics
// keyed by a small, fixed set of label keys (the tenant dimension, mostly).
// A vector holds one child per distinct label set, uncapped: the tenant
// observability plane, which makes every labeled vector, caps its tenants
// before it names a label.

// labelKeyRE is the shape every label key must have: lowercase snake_case.
// crdb-lint's metricnames check additionally restricts keys to a small
// allowed vocabulary at registration sites.
var labelKeyRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// vecSep joins label values into a child key. 0xff cannot appear in UTF-8
// text, so joined keys cannot collide across value boundaries.
const vecSep = "\xff"

// vecChild pairs a child metric with the label values that key it.
type vecChild struct {
	values []string
	m      any
}

// vecCore holds the label-set bookkeeping shared by CounterVec, GaugeVec,
// and HistogramVec.
type vecCore struct {
	keys []string

	mu       sync.Mutex
	children map[string]*vecChild
}

func newVecCore(name string, keys []string) vecCore {
	if len(keys) == 0 {
		panic(fmt.Sprintf("metric: vector %q needs at least one label key", name))
	}
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		if !labelKeyRE.MatchString(k) {
			panic(fmt.Sprintf("metric: vector %q label key %q is not lowercase snake_case", name, k))
		}
		if seen[k] {
			panic(fmt.Sprintf("metric: vector %q repeats label key %q", name, k))
		}
		seen[k] = true
	}
	return vecCore{
		keys:     append([]string(nil), keys...),
		children: make(map[string]*vecChild),
	}
}

// Keys returns the vector's label keys in declaration order.
func (v *vecCore) Keys() []string { return append([]string(nil), v.keys...) }

// child returns the metric for the given label values, creating it with
// mk on first use.
func (v *vecCore) child(values []string, mk func() any) any {
	if len(values) != len(v.keys) {
		panic(fmt.Sprintf("metric: vector expects %d label values, got %d", len(v.keys), len(values)))
	}
	k := strings.Join(values, vecSep)
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[k]; ok {
		return c.m
	}
	c := &vecChild{values: append([]string(nil), values...), m: mk()}
	v.children[k] = c
	return c.m
}

// peek returns the child for the given label values without creating it:
// nil when the label set has never been observed.
func (v *vecCore) peek(values []string) any {
	if len(values) != len(v.keys) {
		panic(fmt.Sprintf("metric: vector expects %d label values, got %d", len(v.keys), len(values)))
	}
	k := strings.Join(values, vecSep)
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[k]; ok {
		return c.m
	}
	return nil
}

// each calls fn for every child in sorted label-value order. The snapshot
// is taken under the lock; fn runs outside it.
func (v *vecCore) each(fn func(values []string, m any)) {
	v.mu.Lock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	snap := make([]*vecChild, 0, len(keys))
	for _, k := range keys {
		snap = append(snap, v.children[k])
	}
	v.mu.Unlock()
	for _, c := range snap {
		fn(c.values, c.m)
	}
}

// CounterVec is a family of Counters keyed by label values.
type CounterVec struct {
	vecCore
}

// NewCounterVec registers and returns a labeled counter family.
func (r *Registry) NewCounterVec(name string, labelKeys ...string) *CounterVec {
	v := &CounterVec{vecCore: newVecCore(name, labelKeys)}
	r.MustRegister(name, v)
	return v
}

// With returns the child counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	return v.child(values, func() any { return &Counter{} }).(*Counter)
}

// Peek returns the child counter for the given label values, or nil if
// that label set has never been observed. Unlike With, it never creates a
// series, so read paths (debug pages) don't perturb the exposition.
func (v *CounterVec) Peek(values ...string) *Counter {
	m := v.peek(values)
	if m == nil {
		return nil
	}
	return m.(*Counter)
}

// Each calls fn for every child in sorted label-value order.
func (v *CounterVec) Each(fn func(values []string, c *Counter)) {
	v.each(func(values []string, m any) { fn(values, m.(*Counter)) })
}

// GaugeVec is a family of Gauges keyed by label values.
type GaugeVec struct {
	vecCore
}

// NewGaugeVec registers and returns a labeled gauge family.
func (r *Registry) NewGaugeVec(name string, labelKeys ...string) *GaugeVec {
	v := &GaugeVec{vecCore: newVecCore(name, labelKeys)}
	r.MustRegister(name, v)
	return v
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.child(values, func() any { return &Gauge{} }).(*Gauge)
}

// Peek returns the child gauge for the given label values, or nil if that
// label set has never been observed.
func (v *GaugeVec) Peek(values ...string) *Gauge {
	m := v.peek(values)
	if m == nil {
		return nil
	}
	return m.(*Gauge)
}

// Each calls fn for every child in sorted label-value order.
func (v *GaugeVec) Each(fn func(values []string, g *Gauge)) {
	v.each(func(values []string, m any) { fn(values, m.(*Gauge)) })
}

// HistogramVec is a family of Histograms keyed by label values.
type HistogramVec struct {
	vecCore
}

// NewHistogramVec registers and returns a labeled histogram family.
func (r *Registry) NewHistogramVec(name string, labelKeys ...string) *HistogramVec {
	v := &HistogramVec{vecCore: newVecCore(name, labelKeys)}
	r.MustRegister(name, v)
	return v
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.child(values, func() any { return NewHistogram() }).(*Histogram)
}

// Peek returns the child histogram for the given label values, or nil if
// that label set has never been observed.
func (v *HistogramVec) Peek(values ...string) *Histogram {
	m := v.peek(values)
	if m == nil {
		return nil
	}
	return m.(*Histogram)
}

// Each calls fn for every child in sorted label-value order.
func (v *HistogramVec) Each(fn func(values []string, h *Histogram)) {
	v.each(func(values []string, m any) { fn(values, m.(*Histogram)) })
}
