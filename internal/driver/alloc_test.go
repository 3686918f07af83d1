package driver

import (
	"math"
	"testing"

	"uvmsim/internal/faultbuf"
	"uvmsim/internal/mem"
)

// batchEntries builds a batch touching several VABlocks with interleaved,
// duplicated pages — the shape preprocess sees under parallel fault
// arrival.
func batchEntries(geom mem.Geometry, blocks, perBlock int) []faultbuf.Entry {
	entries := make([]faultbuf.Entry, 0, blocks*perBlock)
	seq := uint64(0)
	for p := 0; p < perBlock; p++ {
		for b := blocks - 1; b >= 0; b-- {
			seq++
			entries = append(entries, faultbuf.Entry{
				Seq:   seq,
				Page:  mem.PageID(b*geom.PagesPerVABlock + p*3%geom.PagesPerVABlock),
				Write: p%2 == 0,
				SM:    b % 4,
			})
		}
	}
	return entries
}

// TestPreprocessSteadyStateAllocFree pins the batch-scoped scratch arena
// (DESIGN.md §12): once the bin pool is warm, grouping and ordering a
// batch allocates nothing.
func TestPreprocessSteadyStateAllocFree(t *testing.T) {
	h := newHarness(t, 64<<20, 16<<20)
	entries := batchEntries(h.space.Geometry(), 6, 40)
	h.drv.binBatch(entries) // warm the bin pool and index
	if n := testing.AllocsPerRun(100, func() {
		h.drv.binBatch(entries)
	}); n != 0 {
		t.Errorf("binBatch allocates %v times per batch in steady state, want 0", n)
	}
}

// TestFetchSteadyStateAllocFree pins the fetch accumulation scratch: a
// warm driver pulls a full batch out of the ring buffer without
// allocating.
func TestFetchSteadyStateAllocFree(t *testing.T) {
	h := newHarness(t, 64<<20, 16<<20)
	d := h.drv
	d.acc = d.acc[:0]
	d.acc = append(d.acc, faultbuf.Entry{Seq: 1})[:0] // warm capacity retention path
	fill := func() {
		for i := 0; i < d.cfg.BatchSize; i++ {
			if _, ok := h.buf.Put(mem.PageID(i), false, 0, 0, 0); !ok {
				t.Fatal("fault buffer full while filling")
			}
		}
	}
	fill()
	d.acc = h.buf.AppendReady(d.acc[:0], d.cfg.BatchSize, 0)
	if n := testing.AllocsPerRun(20, func() {
		fill()
		d.acc = h.buf.AppendReady(d.acc[:0], d.cfg.BatchSize, 0)
	}); n != 0 {
		t.Errorf("batch fetch allocates %v times per batch in steady state, want 0", n)
	}
}

// TestBinBatchOrderedUniqueBlocks is the ordering regression test: the
// bins come out strictly ascending by block ID (modulo the batch
// rotation, zero here) with every block exactly once, and the demanded
// sets contain exactly the batch's pages.
func TestBinBatchOrderedUniqueBlocks(t *testing.T) {
	h := newHarness(t, 64<<20, 16<<20)
	geom := h.space.Geometry()
	entries := batchEntries(geom, 6, 40)
	for range 3 { // repeat to cover pooled-bin reuse
		ordered := h.drv.binBatch(entries)
		if len(ordered) != 6 {
			t.Fatalf("got %d bins, want 6", len(ordered))
		}
		want := make(map[mem.VABlockID]map[int]bool)
		for _, e := range entries {
			id := geom.BlockOf(e.Page)
			if want[id] == nil {
				want[id] = make(map[int]bool)
			}
			want[id][geom.PageIndex(e.Page)] = true
		}
		for i, b := range ordered {
			if i > 0 && b.block <= ordered[i-1].block {
				t.Fatalf("bins not strictly ascending: block %d at %d after %d",
					b.block, i, ordered[i-1].block)
			}
			if b.demanded.Count() != len(want[b.block]) {
				t.Errorf("block %d: demanded %d pages, want %d",
					b.block, b.demanded.Count(), len(want[b.block]))
			}
			b.demanded.ForEachSet(func(idx int) {
				if !want[b.block][idx] {
					t.Errorf("block %d: stale demanded page %d (pool reuse leak)", b.block, idx)
				}
			})
		}
	}
}

func TestAssertUniqueBlocksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate block IDs did not panic")
		}
	}()
	assertUniqueBlocks([]*bin{{block: 3}, {block: 3}})
}

func TestRotateLeft(t *testing.T) {
	for _, tc := range []struct {
		in   []int
		rot  int
		want []int
	}{
		{[]int{1, 2, 3, 4, 5}, 2, []int{3, 4, 5, 1, 2}},
		{[]int{1, 2, 3}, 0, []int{1, 2, 3}},
		{[]int{1, 2}, 1, []int{2, 1}},
	} {
		got := append([]int(nil), tc.in...)
		rotateLeft(got, tc.rot)
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("rotateLeft(%v, %d) = %v, want %v", tc.in, tc.rot, got, tc.want)
				break
			}
		}
	}
}

// TestBinBatchAcrossGenerationReuse pins the generation-stamped bin
// index: batches over different block sets, run across the stamp's
// wrap-around, each get exactly their own bins. A slot stamped by a
// batch 2^32 batches ago must not read as one of the current batch's.
func TestBinBatchAcrossGenerationReuse(t *testing.T) {
	h := newHarness(t, 64<<20, 16<<20)
	geom := h.space.Geometry()
	d := h.drv
	page := func(id mem.VABlockID, p int) faultbuf.Entry {
		return faultbuf.Entry{Page: geom.FirstPage(id) + mem.PageID(p)}
	}
	// Stamp block 7's slot with generation 1, then jump to just before
	// the wrap: after it, generation 1 comes round again.
	d.binBatch([]faultbuf.Entry{page(6, 0), page(7, 0)})
	d.binGen = math.MaxUint32 - 2
	for round := 0; round < 8; round++ {
		// Consecutive batches overlap on some blocks and not others;
		// block 7 returns only after the wrap.
		ids := []mem.VABlockID{mem.VABlockID(round % 3), mem.VABlockID(round%3 + 3)}
		if round >= 2 { // round 2 runs at generation 1 again
			ids = append(ids, 7)
		}
		var entries []faultbuf.Entry
		for _, id := range ids {
			for p := 0; p < 3; p++ {
				entries = append(entries, page(id, p*5+round))
			}
		}
		ordered := d.binBatch(entries)
		if len(ordered) != len(ids) {
			t.Fatalf("round %d (gen %d): %d bins, want %d", round, d.binGen, len(ordered), len(ids))
		}
		for _, b := range ordered {
			if b.demanded.Count() != 3 {
				t.Errorf("round %d (gen %d): block %d demands %d pages, want 3",
					round, d.binGen, b.block, b.demanded.Count())
			}
		}
	}
	if d.binGen == 0 || d.binGen > 8 {
		t.Errorf("binGen = %d after wrapping, want a small nonzero stamp", d.binGen)
	}
}
