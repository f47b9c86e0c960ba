// A test file's selectors count as reads.
package deadsurface

func countOf(s stats) int { return s.Count }
