// Negative cases for the deadsurface check: each exemption, and an allow
// with a reason of an admitted kind.
package deadsurface

import (
	"errors"
	"sort"
)

// Sizer is an in-tree interface.
type Sizer interface{ Size() int }

type box struct{ n int }

// Size implements Sizer; implementations are reached through the interface.
func (b box) Size() int { return b.n }

func total(items []Sizer) int {
	n := 0
	for _, it := range items {
		n += it.Size()
	}
	return n
}

// byLen implements sort.Interface.
type byLen []string

func (s byLen) Len() int           { return len(s) }
func (s byLen) Less(i, j int) bool { return len(s[i]) < len(s[j]) }
func (s byLen) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

func sortNames(names []string) {
	sort.Sort(byLen(names))
	_ = total([]Sizer{box{n: 1}})
}

// wrapErr is an error that errors.Is and errors.As look through.
type wrapErr struct{ err error }

func (e *wrapErr) Error() string { return "wrapped: " + e.err.Error() }

// Unwrap is reached by the errors package, not by a reference.
func (e *wrapErr) Unwrap() error { return e.err }

func wrap(err error) error {
	return &wrapErr{err: errors.New(err.Error())}
}

// Report is rendered by encoding/json, which reaches its tagged fields by
// reflection.
type Report struct {
	Total int `json:"total"`
}

// stats is written here and read only by a test.
type stats struct {
	Count int
}

func count(n int) stats { return stats{Count: n} }

// Exported's only caller is in a nested module, which counts as a caller.
func Exported() int { return 1 }

// Reserved waits on an open roadmap item.
//
//lint:allow deadsurface roadmap: corpus case naming the item that will wire it in
func Reserved() {}

func use() {
	sortNames(nil)
	_ = wrap(errors.New("x"))
	_ = count(3)
	_ = run()
}
