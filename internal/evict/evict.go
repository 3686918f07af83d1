// Package evict implements VABlock eviction policies. The production UVM
// driver uses least-recently-used eviction where the LRU list is updated
// only when a *fault* is serviced on a block (paper §V-A). That
// restriction creates the pathology the paper highlights: fully-resident
// hot blocks are never touched again and drift to the LRU tail, so the
// hottest data can be the first evicted. Alternative policies (FIFO,
// random, and an access-counter-aware variant of LRU per §VI-B) exist for
// the ablation experiments.
package evict

import (
	"fmt"

	"uvmsim/internal/mem"
	"uvmsim/internal/sim"
)

// Policy selects eviction victims among GPU-allocated VABlocks.
//
// Insert registers a newly allocated block; Touch records a fault-service
// event on a registered block; Remove deregisters a block (after eviction
// or teardown); Victim returns the block to evict next without removing
// it, or nil when none is registered.
type Policy interface {
	Name() string
	Insert(b *mem.VABlock)
	Touch(b *mem.VABlock)
	Remove(b *mem.VABlock)
	Victim() *mem.VABlock
	Len() int
}

// New returns the named policy: "lru", "fifo", "random", or
// "access-aware". rng is required by "random" only.
func New(name string, rng *sim.RNG) (Policy, error) {
	switch name {
	case "lru", "":
		return NewLRU(), nil
	case "fifo":
		return NewFIFO(), nil
	case "random":
		if rng == nil {
			return nil, fmt.Errorf("evict: random policy requires an RNG")
		}
		return NewRandom(rng), nil
	case "access-aware":
		return NewAccessAware(), nil
	default:
		return nil, fmt.Errorf("evict: unknown policy %q", name)
	}
}

type lruNode struct {
	block      *mem.VABlock
	prev, next *lruNode
}

// LRU is the driver's default policy: victims come from the tail; Touch
// moves a block to the head. Only fault servicing calls Touch.
//
// Removed nodes go to an intrusive free list instead of the garbage
// collector: under oversubscription every serviced bin can evict and
// re-insert a block, so the steady-state Insert/Remove churn reuses a
// bounded set of nodes and allocates nothing.
//
// Nodes are found through a block-indexed table (nil = not registered),
// grown to the highest block ID ever inserted.
type LRU struct {
	head, tail *lruNode // head = most recently touched
	nodes      []*lruNode
	n          int      // registered blocks
	free       *lruNode // singly linked (via next) recycled nodes
}

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements Policy.
func (l *LRU) Name() string { return "lru" }

// Len implements Policy.
func (l *LRU) Len() int { return l.n }

// node returns the registered node of block id, or nil.
func (l *LRU) node(id mem.VABlockID) *lruNode {
	if id >= mem.VABlockID(len(l.nodes)) {
		return nil
	}
	return l.nodes[id]
}

func (l *LRU) pushFront(n *lruNode) {
	n.prev = nil
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

func (l *LRU) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// Insert implements Policy. Inserting an already-present block panics:
// the driver allocates a block exactly once per residency period.
func (l *LRU) Insert(b *mem.VABlock) {
	if l.node(b.ID) != nil {
		panic(fmt.Sprintf("evict: duplicate insert of block %d", b.ID))
	}
	n := l.free
	if n != nil {
		l.free = n.next
		n.next = nil
		n.block = b
	} else {
		n = &lruNode{block: b}
	}
	l.nodes = mem.GrowTable(l.nodes, b.ID, nil)
	l.nodes[b.ID] = n
	l.n++
	l.pushFront(n)
}

// Touch implements Policy.
func (l *LRU) Touch(b *mem.VABlock) {
	n := l.node(b.ID)
	if n == nil {
		panic(fmt.Sprintf("evict: touch of unregistered block %d", b.ID))
	}
	if l.head == n {
		return
	}
	l.unlink(n)
	l.pushFront(n)
}

// Remove implements Policy.
func (l *LRU) Remove(b *mem.VABlock) {
	n := l.node(b.ID)
	if n == nil {
		panic(fmt.Sprintf("evict: remove of unregistered block %d", b.ID))
	}
	l.unlink(n)
	l.nodes[b.ID] = nil
	l.n--
	n.block = nil // drop the block reference while pooled
	n.next = l.free
	l.free = n
}

// Victim implements Policy: the least recently touched block.
func (l *LRU) Victim() *mem.VABlock {
	if l.tail == nil {
		return nil
	}
	return l.tail.block
}

// Tail returns up to n blocks from the LRU end, oldest first (testing and
// diagnostics).
func (l *LRU) Tail(n int) []*mem.VABlock {
	out := make([]*mem.VABlock, 0, n)
	for node := l.tail; node != nil && len(out) < n; node = node.prev {
		out = append(out, node.block)
	}
	return out
}

// FIFO evicts in allocation order; Touch is a no-op.
type FIFO struct {
	lru LRU
}

// NewFIFO returns an empty FIFO policy.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements Policy.
func (f *FIFO) Name() string { return "fifo" }

// Len implements Policy.
func (f *FIFO) Len() int { return f.lru.Len() }

// Insert implements Policy.
func (f *FIFO) Insert(b *mem.VABlock) { f.lru.Insert(b) }

// Touch implements Policy (no reordering).
func (f *FIFO) Touch(b *mem.VABlock) {
	if f.lru.node(b.ID) == nil {
		panic(fmt.Sprintf("evict: touch of unregistered block %d", b.ID))
	}
}

// Remove implements Policy.
func (f *FIFO) Remove(b *mem.VABlock) { f.lru.Remove(b) }

// Victim implements Policy: the oldest allocation.
func (f *FIFO) Victim() *mem.VABlock { return f.lru.Victim() }

// Random evicts a uniformly random registered block.
type Random struct {
	rng   *sim.RNG
	order []*mem.VABlock
	// index is block-indexed: the block's position in order, or -1 when
	// it is not registered.
	index []int
}

// NewRandom returns an empty random policy using rng.
func NewRandom(rng *sim.RNG) *Random { return &Random{rng: rng} }

// pos returns block id's position in order, or -1.
func (r *Random) pos(id mem.VABlockID) int {
	if id >= mem.VABlockID(len(r.index)) {
		return -1
	}
	return r.index[id]
}

// Name implements Policy.
func (r *Random) Name() string { return "random" }

// Len implements Policy.
func (r *Random) Len() int { return len(r.order) }

// Insert implements Policy.
func (r *Random) Insert(b *mem.VABlock) {
	if r.pos(b.ID) >= 0 {
		panic(fmt.Sprintf("evict: duplicate insert of block %d", b.ID))
	}
	r.index = mem.GrowTable(r.index, b.ID, -1)
	r.index[b.ID] = len(r.order)
	r.order = append(r.order, b)
}

// Touch implements Policy (no-op).
func (r *Random) Touch(b *mem.VABlock) {
	if r.pos(b.ID) < 0 {
		panic(fmt.Sprintf("evict: touch of unregistered block %d", b.ID))
	}
}

// Remove implements Policy (swap-delete).
func (r *Random) Remove(b *mem.VABlock) {
	i := r.pos(b.ID)
	if i < 0 {
		panic(fmt.Sprintf("evict: remove of unregistered block %d", b.ID))
	}
	last := len(r.order) - 1
	r.order[i] = r.order[last]
	r.index[r.order[i].ID] = i
	r.order = r.order[:last]
	r.index[b.ID] = -1
}

// Victim implements Policy.
func (r *Random) Victim() *mem.VABlock {
	if len(r.order) == 0 {
		return nil
	}
	return r.order[r.rng.Intn(len(r.order))]
}

// AccessAware is the §VI-B extension: LRU augmented with Volta-style
// access counters. A tail block whose GPU access counter advanced since
// the policy last examined it gets a second chance (moved to the head),
// fixing the hot-data starvation of fault-only LRU. The scan is bounded
// to one full cycle so Victim always terminates.
type AccessAware struct {
	lru LRU
	// lastSeen is block-indexed: each registered block's access counter
	// as of its insertion or last second chance.
	lastSeen []uint64
}

// NewAccessAware returns an empty access-aware policy.
func NewAccessAware() *AccessAware { return &AccessAware{} }

// Name implements Policy.
func (a *AccessAware) Name() string { return "access-aware" }

// Len implements Policy.
func (a *AccessAware) Len() int { return a.lru.Len() }

// Insert implements Policy.
func (a *AccessAware) Insert(b *mem.VABlock) {
	a.lru.Insert(b)
	a.lastSeen = mem.GrowTable(a.lastSeen, b.ID, 0)
	a.lastSeen[b.ID] = b.GPUAccesses
}

// Touch implements Policy.
func (a *AccessAware) Touch(b *mem.VABlock) { a.lru.Touch(b) }

// Remove implements Policy.
func (a *AccessAware) Remove(b *mem.VABlock) {
	a.lru.Remove(b)
	a.lastSeen[b.ID] = 0
}

// Victim implements Policy.
func (a *AccessAware) Victim() *mem.VABlock {
	n := a.lru.Len()
	for i := 0; i < n; i++ {
		v := a.lru.Victim()
		if v == nil {
			return nil
		}
		if v.GPUAccesses > a.lastSeen[v.ID] {
			// Accessed since last inspection: second chance.
			a.lastSeen[v.ID] = v.GPUAccesses
			a.lru.Touch(v)
			continue
		}
		return v
	}
	// Every block was recently accessed; fall back to plain LRU order.
	return a.lru.Victim()
}
