// Package hlc implements hybrid logical clock timestamps, the ordering
// primitive for MVCC versions and transaction timestamps in the KV layer
// (§3.1 of the paper; the design follows CockroachDB's HLC).
package hlc

import (
	"fmt"
	"sync"
	"time"

	"crdbserverless/internal/timeutil"
)

// Timestamp is a hybrid logical clock reading: wall nanoseconds plus a
// logical counter that breaks ties among events in the same wall tick.
type Timestamp struct {
	WallTime int64 // nanoseconds since the Unix epoch
	Logical  int32
}

// Less reports whether t orders strictly before o.
func (t Timestamp) Less(o Timestamp) bool {
	if t.WallTime != o.WallTime {
		return t.WallTime < o.WallTime
	}
	return t.Logical < o.Logical
}

// IsEmpty reports whether t is the zero timestamp.
func (t Timestamp) IsEmpty() bool { return t.WallTime == 0 && t.Logical == 0 }

// Next returns the smallest timestamp strictly greater than t.
func (t Timestamp) Next() Timestamp {
	if t.Logical == int32(^uint32(0)>>1) {
		return Timestamp{WallTime: t.WallTime + 1}
	}
	return Timestamp{WallTime: t.WallTime, Logical: t.Logical + 1}
}

// GoTime converts the wall component to a time.Time.
func (t Timestamp) GoTime() time.Time { return time.Unix(0, t.WallTime) }

// String renders the timestamp as wall,logical.
func (t Timestamp) String() string {
	return fmt.Sprintf("%d.%09d,%d", t.WallTime/1e9, t.WallTime%1e9, t.Logical)
}

// Clock generates monotonically increasing hybrid logical timestamps from an
// underlying physical clock, merging observed remote timestamps so that
// causality is preserved across nodes. Safe for concurrent use.
type Clock struct {
	phys timeutil.Clock

	mu   sync.Mutex
	last Timestamp
}

// NewClock returns an HLC driven by the given physical clock.
func NewClock(phys timeutil.Clock) *Clock {
	return &Clock{phys: phys}
}

// Now returns the next HLC timestamp, strictly greater than any previously
// returned or observed timestamp.
func (c *Clock) Now() Timestamp {
	wall := c.phys.Now().UnixNano()
	c.mu.Lock()
	defer c.mu.Unlock()
	if wall > c.last.WallTime {
		c.last = Timestamp{WallTime: wall}
	} else {
		c.last = c.last.Next()
	}
	return c.last
}

// Update merges a remote timestamp into the clock so that subsequent Now
// calls return timestamps greater than remote.
func (c *Clock) Update(remote Timestamp) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.last.Less(remote) {
		c.last = remote
	}
}

// Physical returns the underlying physical clock, so callers that already
// hold an HLC (e.g. the transaction coordinator's retry backoff) can wait on
// the same time source instead of the wall clock.
func (c *Clock) Physical() timeutil.Clock { return c.phys }
