package mem

import (
	"fmt"
	"testing"
)

// tableSpace lays out a 3-page range (one partial block), a 2.5-block
// range and a 1-block remote-mapped range under 64 KB blocks (16 pages).
func tableSpace(t *testing.T) (*AddressSpace, []*Range) {
	t.Helper()
	g, err := NewGeometry(BigPageSize)
	if err != nil {
		t.Fatal(err)
	}
	s := NewAddressSpace(g)
	var rs []*Range
	for _, a := range []struct {
		bytes int64
		mode  AccessMode
	}{
		{3 * PageSize, ModeMigrate},
		{40 * PageSize, ModeMigrate},
		{16 * PageSize, ModeRemoteMap},
	} {
		r, err := s.AllocMode(a.bytes, "r", a.mode)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	return s, rs
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestBlockTableBounds(t *testing.T) {
	s, rs := tableSpace(t)
	if got, want := len(s.blocks), 1+3+1; got != want {
		t.Fatalf("block table holds %d slots, want %d", got, want)
	}
	// Past the last range: nothing materializes and nothing is resident.
	for _, id := range []VABlockID{5, 6, 1 << 40} {
		if s.BlockIfExists(id) != nil {
			t.Errorf("BlockIfExists(%d) past the last range returned a block", id)
		}
		if s.IsResident(s.geom.FirstPage(id)) {
			t.Errorf("page of block %d past the last range reads resident", id)
		}
		mustPanic(t, fmt.Sprintf("Block(%d)", id), func() { s.Block(id) })
	}
	// Block padding: page 3..15 of block 0 and 8..15 of block 3 lie past
	// their ranges' ends but inside blocks the ranges span.
	for _, p := range []PageID{3, 15, rs[1].End(), rs[2].StartPage - 1} {
		if s.IsResident(p) {
			t.Errorf("padding page %d reads resident before any fault", p)
		}
		if r := s.RangeOf(p); r != nil {
			t.Errorf("padding page %d maps to range %d", p, r.ID)
		}
	}
	b := s.Block(s.geom.BlockOf(rs[1].End()))
	if b.Range != rs[1].ID {
		t.Errorf("partial last block belongs to range %d, want %d", b.Range, rs[1].ID)
	}
	if s.BlockIfExists(b.ID) != b {
		t.Error("BlockIfExists does not return the materialized block")
	}
}

func TestPartialLastBlock(t *testing.T) {
	s, rs := tableSpace(t)
	if got := s.ValidPagesIn(0); got != 3 {
		t.Errorf("3-page range: ValidPagesIn(0) = %d, want 3", got)
	}
	last := s.geom.BlockOf(rs[1].End() - 1)
	if got := s.ValidPagesIn(last); got != 8 {
		t.Errorf("2.5-block range: ValidPagesIn(%d) = %d, want 8", last, got)
	}
	blk := s.Block(last)
	blk.Resident.Set(7)
	if !s.IsResident(rs[1].End() - 1) {
		t.Error("resident last valid page reads non-resident")
	}
	if s.IsResident(rs[1].End()) {
		t.Error("padding page after it reads resident")
	}
}

func TestRemoteMapRangeMaterializesEagerly(t *testing.T) {
	s, rs := tableSpace(t)
	id := s.geom.BlockOf(rs[2].StartPage)
	b := s.BlockIfExists(id)
	if b == nil {
		t.Fatal("remote-mapped block not materialized at allocation")
	}
	if !b.Remote || b.Resident.Count() != 16 {
		t.Errorf("remote block: remote=%v resident=%d, want true and 16", b.Remote, b.Resident.Count())
	}
	for id := VABlockID(0); id < 4; id++ {
		if s.BlockIfExists(id) != nil {
			t.Errorf("migrate-mode block %d materialized before any fault", id)
		}
	}
	if got := s.ResidentPages(); got != 16 {
		t.Errorf("ResidentPages = %d, want the remote range's 16", got)
	}
}

func TestForEachBlockAscending(t *testing.T) {
	s, _ := tableSpace(t)
	for _, id := range []VABlockID{3, 0, 2} {
		s.Block(id)
	}
	var got []VABlockID
	s.ForEachBlock(func(b *VABlock) { got = append(got, b.ID) })
	want := []VABlockID{0, 2, 3, 4}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ForEachBlock visited %v, want materialized blocks in ascending order %v", got, want)
	}
}

func TestGrowTable(t *testing.T) {
	var tab []int
	tab = GrowTable(tab, 3, -1)
	if fmt.Sprint(tab) != "[-1 -1 -1 -1]" {
		t.Fatalf("GrowTable = %v", tab)
	}
	tab[1] = 7
	tab = GrowTable(tab, 2, -1)
	tab = GrowTable(tab, 5, -1)
	if fmt.Sprint(tab) != "[-1 7 -1 -1 -1 -1]" {
		t.Errorf("GrowTable kept/filled wrong: %v", tab)
	}
}

// TestIsResidentAllocFree pins the GPU's per-access residency check to
// zero allocations, inside and past the block table.
func TestIsResidentAllocFree(t *testing.T) {
	s, rs := tableSpace(t)
	s.Block(1).Resident.Set(2)
	in, past := rs[1].StartPage+2, s.geom.FirstPage(VABlockID(len(s.blocks)+3))
	if n := testing.AllocsPerRun(200, func() {
		s.IsResident(in)
		s.IsResident(in + 1)
		s.IsResident(past)
	}); n != 0 {
		t.Errorf("IsResident allocates %v times per call, want 0", n)
	}
}
