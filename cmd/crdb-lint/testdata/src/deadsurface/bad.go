// Positive cases for the deadsurface check: one per shape, and miniatures
// of the live cases it was written for.
package deadsurface

// Options is a configuration struct.
type Options struct {
	// Seed is never set by anyone: a knob that is a constant.
	Seed int64 // want deadsurface
	// MemTableSize is only ever filled in by its own default.
	MemTableSize int // want deadsurface
	// Dir is set by a caller and read below.
	Dir string
}

func (o *Options) defaults() {
	if o.MemTableSize == 0 {
		o.MemTableSize = 4 << 20
	}
}

// Open reads every option.
func Open(o Options) int {
	o.defaults()
	return int(o.Seed) + o.MemTableSize + len(o.Dir)
}

// conn keeps state that is written and never read.
type conn struct {
	id     uint64
	origin string // want deadsurface
	hits   int    // want deadsurface
}

func newConn(id uint64, origin string) *conn {
	c := &conn{id: id, origin: origin}
	c.hits++
	return c
}

// Cluster and Node model the roadmap's live cases: a GC pass and a locality
// accessor that nothing calls yet.
type Cluster struct{ nodes []*Node }

// Node is one KV node.
type Node struct{ region string }

// NewNode returns a node in region r.
func NewNode(r string) *Node { return &Node{region: r} }

// RunGC collects old versions; no caller drives it.
func (c *Cluster) RunGC() int { // want deadsurface
	return len(c.nodes)
}

// Region returns the node's locality; no caller reads it.
func (n *Node) Region() string { return n.region } // want deadsurface

func run() int {
	c := &Cluster{nodes: []*Node{NewNode("us-east1")}}
	return Open(Options{Dir: "/data"}) + int(newConn(1, "10.0.0.1").id) + len(c.nodes)
}

// A reason of no admitted kind is malformed, and suppresses nothing.
// want-next lintdirective deadsurface
func Unjustified() {} //lint:allow deadsurface nobody calls it
