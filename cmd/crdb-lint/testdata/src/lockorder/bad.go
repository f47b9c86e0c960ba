// Two code paths that acquire the same pair of locks in opposite orders can
// deadlock; the linter builds the global acquisition graph and rejects the
// cycle.
package lockorder

import "sync"

type server struct {
	regMu  sync.Mutex
	connMu sync.Mutex
	reg    int
	conns  int
}

func (s *server) register() {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	s.connMu.Lock()
	s.conns += s.reg
	s.connMu.Unlock()
}

func (s *server) broadcast() {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	s.regMu.Lock() // want lockorder
	s.reg += s.conns
	s.regMu.Unlock()
}
