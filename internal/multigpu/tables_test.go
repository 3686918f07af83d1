package multigpu

import (
	"strings"
	"testing"

	"uvmsim/internal/driver"
	"uvmsim/internal/inject"
	"uvmsim/internal/mem"
)

// release evicts block id from device d the way the driver's evictBlock
// does, ending with the Released hook.
func (h *harness) release(d int, id mem.VABlockID) {
	blk := h.devs[d].Space.Block(id)
	h.devs[d].Evict.Remove(blk)
	h.devs[d].PMA.Free()
	blk.Resident.Reset()
	blk.Dirty.Reset()
	blk.Allocated = false
	h.m.DriverHook(d).Released(blk)
}

// TestResidencyTablesRoundTripK4 drives every block of a K=4 layout
// through claim, remote mapping by all three peers, access counting and
// release, twice with the owner rotated, checking the block-indexed
// owner, remote-mask and counter tables (and the audit) at each step.
func TestResidencyTablesRoundTripK4(t *testing.T) {
	const K, blocks = 4, 6
	h := newHarness(t, K, blocks, Config{Policy: AccessCounter, Threshold: 1 << 30})
	inv := NewInvariants(h.m, 1)
	for pass := 0; pass < 2; pass++ {
		for id := mem.VABlockID(0); id < blocks; id++ {
			o := (int(id) + pass) % K
			h.claim(t, o, id)
			for d := 0; d < K; d++ {
				want := driver.OwnPeer
				if d == o {
					want = driver.OwnSelf
				}
				if got := h.m.DriverHook(d).Classify(id); got != want {
					t.Fatalf("pass %d block %d: device %d classifies %v, want %v", pass, id, d, got, want)
				}
				if d != o {
					blk := h.devs[d].Space.Block(id)
					h.m.DriverHook(d).RemoteMap(blk)
					h.m.RemoteAccess(d, h.devs[d].Space.Geometry().FirstPage(id), false, blk)
				}
			}
			if got, want := h.m.remoteMask(id), uint64(1<<K-1)&^(1<<o); got != want {
				t.Fatalf("pass %d block %d: remote mask %04b, want %04b", pass, id, got, want)
			}
			for d, c := range h.m.blockCounts(id) {
				want := uint32(1) // one remote access per peer
				if d == o {
					want = 0
				}
				if c != want {
					t.Fatalf("pass %d block %d: device %d counter %d, want %d", pass, id, d, c, want)
				}
			}
			inv.Final(0)
		}
		for id := mem.VABlockID(0); id < blocks; id++ {
			h.release((int(id)+pass)%K, id)
			if h.m.Owner(id) != -1 || h.m.remoteMask(id) != 0 {
				t.Fatalf("pass %d block %d released: owner %d mask %b, want host and none", pass, id, h.m.Owner(id), h.m.remoteMask(id))
			}
			for d, c := range h.m.blockCounts(id) {
				if c != 0 {
					t.Fatalf("pass %d block %d released: device %d counter %d survives", pass, id, d, c)
				}
			}
			for d := 0; d < K; d++ {
				if blk := h.devs[d].Space.BlockIfExists(id); blk.Remote || blk.Resident.Count() != 0 {
					t.Fatalf("pass %d block %d released: device %d view keeps a mapping", pass, id, d)
				}
			}
			inv.Final(0)
		}
	}
	if got := h.m.Registry().Counter("p2p_invalidations").Get(); got != 2*blocks*(K-1) {
		t.Errorf("invalidations = %d, want %d", got, 2*blocks*(K-1))
	}
	// Past the tables' end every block reads host-owned and unmapped.
	far := mem.VABlockID(1 << 20)
	if h.m.Owner(far) != -1 || h.m.remoteMask(far) != 0 || h.m.DriverHook(0).Classify(far) != driver.OwnHost {
		t.Error("a block past the residency tables does not read as host-owned")
	}
}

// TestInvariantsCatchCorruptedOwnerEntry corrupts the owner table
// directly: an entry naming a device whose view holds no backing must
// still trip the audit.
func TestInvariantsCatchCorruptedOwnerEntry(t *testing.T) {
	for _, corrupt := range []struct {
		name string
		id   mem.VABlockID
		dev  int
	}{
		{"owned block moved to a peer", 1, 3},
		{"host block given an owner", 4, 2},
	} {
		h := newHarness(t, 4, 6, Config{})
		h.claim(t, 0, 1)
		inv := NewInvariants(h.m, 1)
		inv.Final(0)
		h.m.grow(corrupt.id)
		h.m.owner[corrupt.id] = corrupt.dev
		func() {
			defer func() {
				v, ok := recover().(*inject.Violation)
				if !ok || !strings.Contains(v.Msg, "not allocated in its view") {
					t.Errorf("%s: audit raised %v, want an unallocated-owner violation", corrupt.name, v)
				}
			}()
			inv.Final(0)
		}()
	}
}
