// A nested module is read as a caller but never reported in: its exported
// names have callers outside the tree.
package nested

import "deadsurface"

// Unused has no caller anywhere, and is not reported.
func Unused() int { return deadsurface.Exported() }
