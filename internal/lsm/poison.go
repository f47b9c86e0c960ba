//go:build poison

package lsm

// The poison build (go test -tags poison) overwrites every key an iterator
// source lent from its key buffer as soon as the source moves on (see
// iterSource.lend), so a caller that keeps Iterator.Key past its next
// positioning call reads poisonByte instead of a key that merely looks stale.
func init() { poisonLentKeys = true }
