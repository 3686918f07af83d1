package evict

import (
	"testing"

	"uvmsim/internal/mem"
	"uvmsim/internal/sim"
)

// TestLRUFreeListReuse exercises the node pool: churned nodes come back
// from the free list with clean links and the list stays consistent.
func TestLRUFreeListReuse(t *testing.T) {
	l := NewLRU()
	bs := blocks(4)
	for _, b := range bs {
		l.Insert(b)
	}
	for round := 0; round < 3; round++ {
		// Evict-style churn: remove the victim, re-insert it.
		v := l.Victim()
		l.Remove(v)
		if l.Len() != len(bs)-1 {
			t.Fatalf("len = %d after remove", l.Len())
		}
		l.Insert(v)
		if got := l.Victim(); got == v {
			t.Fatal("freshly re-inserted block is the victim")
		}
	}
	l.Remove(l.Victim())
	if l.free == nil {
		t.Fatal("free list empty after remove")
	}
	if l.free.block != nil {
		t.Error("pooled node retains a block reference")
	}
}

// TestLRUChurnAllocFree pins the steady-state Insert/Touch/Remove cycle
// at zero allocations once the pool is warm: nodes come from the free
// list and the block table is already grown, so the whole eviction churn
// path never reaches the allocator.
func TestLRUChurnAllocFree(t *testing.T) {
	l := NewLRU()
	bs := blocks(8)
	for _, b := range bs {
		l.Insert(b)
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		v := l.Victim()
		l.Remove(v)
		l.Insert(v)
		l.Touch(bs[i%len(bs)])
		i++
	}); n != 0 {
		t.Errorf("LRU churn allocates %v times per cycle, want 0", n)
	}
}

// TestRandomAndAccessAwareChurnOnTables churns blocks with sparse,
// out-of-order IDs through Random and AccessAware: each block-indexed
// table grows past its end on demand, and removal leaves no stale entry
// that a later insert of the same ID would trip over.
func TestRandomAndAccessAwareChurnOnTables(t *testing.T) {
	ids := []mem.VABlockID{900, 3, 57, 0, 511, 12}
	for _, p := range []Policy{NewRandom(sim.NewRNG(3)), NewAccessAware()} {
		live := map[mem.VABlockID]*mem.VABlock{}
		for round := 0; round < 40; round++ {
			id := ids[round%len(ids)]
			if b, ok := live[id]; ok {
				b.GPUAccesses += uint64(round) // every other cycle looks hot to AccessAware
				p.Touch(b)
				p.Remove(b)
				delete(live, id)
			} else {
				b := &mem.VABlock{ID: id}
				p.Insert(b)
				live[id] = b
			}
			if p.Len() != len(live) {
				t.Fatalf("%s round %d: Len = %d, want %d", p.Name(), round, p.Len(), len(live))
			}
			if v := p.Victim(); len(live) > 0 && (v == nil || live[v.ID] != v) {
				t.Fatalf("%s round %d: victim %v is not a live block", p.Name(), round, v)
			}
		}
		for id, b := range live {
			p.Remove(b)
			delete(live, id)
		}
		if p.Len() != 0 || p.Victim() != nil {
			t.Errorf("%s: emptied policy reports Len %d and a victim", p.Name(), p.Len())
		}
	}
}

// TestPolicyChurnAllocFree extends the LRU pin to FIFO, Random and
// AccessAware: once their block tables are grown, the eviction churn
// cycle allocates nothing.
func TestPolicyChurnAllocFree(t *testing.T) {
	for _, p := range []Policy{NewFIFO(), NewRandom(sim.NewRNG(5)), NewAccessAware()} {
		bs := blocks(8)
		for _, b := range bs {
			p.Insert(b)
		}
		i := 0
		if n := testing.AllocsPerRun(200, func() {
			v := p.Victim()
			p.Remove(v)
			v.GPUAccesses++
			p.Insert(v)
			p.Touch(bs[i%len(bs)])
			i++
		}); n != 0 {
			t.Errorf("%s churn allocates %v times per cycle, want 0", p.Name(), n)
		}
	}
}
