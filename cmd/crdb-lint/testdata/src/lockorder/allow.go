package lockorder

import "sync"

// cache has a known, documented cycle: the allow sits on the diagnostic's
// anchor (the first edge of the reported cycle path).
type cache struct {
	aMu sync.Mutex
	bMu sync.Mutex
	a   int
	b   int
}

func (c *cache) fill() {
	c.aMu.Lock()
	defer c.aMu.Unlock()
	c.bMu.Lock() //lint:allow lockorder corpus case: cycle documented as unreachable because fill and evict never run concurrently
	c.b += c.a
	c.bMu.Unlock()
}

func (c *cache) evict() {
	c.bMu.Lock()
	defer c.bMu.Unlock()
	c.aMu.Lock()
	c.a -= c.b
	c.aMu.Unlock()
}
