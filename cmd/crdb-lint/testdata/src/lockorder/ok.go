package lockorder

import "sync"

// pool acquires its two locks in one global order everywhere, so the
// acquisition graph stays acyclic.
type pool struct {
	bigMu   sync.Mutex
	smallMu sync.Mutex
	big     int
	small   int
}

func (p *pool) grow() {
	p.bigMu.Lock()
	defer p.bigMu.Unlock()
	p.smallMu.Lock()
	p.small += p.big
	p.smallMu.Unlock()
	p.big += p.small
}

func (p *pool) shrink() {
	p.bigMu.Lock()
	defer p.bigMu.Unlock()
	p.smallMu.Lock()
	p.small--
	p.smallMu.Unlock()
	p.big--
}
