package driver_test

import (
	"fmt"
	"testing"

	"uvmsim/internal/driver"
	"uvmsim/internal/evict"
	"uvmsim/internal/faultbuf"
	"uvmsim/internal/mem"
	"uvmsim/internal/multigpu"
	"uvmsim/internal/pma"
	"uvmsim/internal/prefetch"
	"uvmsim/internal/sim"
	"uvmsim/internal/xfer"
)

// nopReplayer stands in for the GPU: the pin below measures the driver's
// service chain, not the GPU's wake-up path.
type nopReplayer struct{}

func (nopReplayer) Replay() {}

// chainRig is K devices' driver stacks over one engine, wired to the
// real multi-GPU residency map at K>1, with one managed range of
// rangeBlocks VABlocks and room for capBlocks of them per device.
type chainRig struct {
	eng  *sim.Engine
	devs []chainDev
}

type chainDev struct {
	space *mem.AddressSpace
	buf   *faultbuf.Buffer
	drv   *driver.Driver
}

const (
	rangeBlocks = 12
	capBlocks   = 3
)

func newChainRig(t *testing.T, K int, policy driver.ReplayPolicy, pf string) *chainRig {
	t.Helper()
	eng := sim.NewEngine()
	r := &chainRig{eng: eng}
	mdevs := make([]*multigpu.Device, K)
	stacks := make([]driver.Deps, K)
	for d := 0; d < K; d++ {
		space := mem.NewAddressSpace(mem.DefaultGeometry())
		if _, err := space.Alloc(rangeBlocks*mem.DefaultVABlockSize, "data"); err != nil {
			t.Fatal(err)
		}
		buf, err := faultbuf.New(4096)
		if err != nil {
			t.Fatal(err)
		}
		pcfg := pma.DefaultConfig(capBlocks * mem.DefaultVABlockSize)
		pcfg.RMJitterFrac = 0
		pm, err := pma.New(pcfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		link, err := xfer.NewLink(eng, xfer.DefaultPCIe3x16())
		if err != nil {
			t.Fatal(err)
		}
		p, err := prefetch.New(pf)
		if err != nil {
			t.Fatal(err)
		}
		ev := evict.NewLRU()
		stacks[d] = driver.Deps{
			Engine: eng, Space: space, Buffer: buf, PMA: pm, Link: link,
			Evict: ev, Prefetch: p, Replayer: nopReplayer{},
		}
		mdevs[d] = &multigpu.Device{ID: d, Space: space, PMA: pm, Evict: ev, Link: link}
	}
	var mgr *multigpu.Manager
	if K > 1 {
		var err error
		if mgr, err = multigpu.NewManager(eng, multigpu.Config{}, mdevs); err != nil {
			t.Fatal(err)
		}
	}
	cfg := driver.DefaultConfig()
	cfg.Policy = policy
	for d := range stacks {
		if mgr != nil {
			stacks[d].Residency = mgr.DriverHook(d)
		}
		drv, err := driver.New(cfg, stacks[d])
		if err != nil {
			t.Fatal(err)
		}
		r.devs = append(r.devs, chainDev{space: stacks[d].Space, buf: stacks[d].Buffer, drv: drv})
	}
	return r
}

// round raises one batch per device and runs the engine dry. Device d
// faults on three blocks of a window that rotates every round, so over
// rounds each device allocates, evicts, re-migrates, and (at K>1)
// remote-maps blocks a peer owns and loses mappings its peer evicts.
func (r *chainRig) round(n int) {
	now := r.eng.Now()
	for d, dv := range r.devs {
		geom := dv.space.Geometry()
		for j := 0; j < 3; j++ {
			id := mem.VABlockID((n*3 + j + d) % rangeBlocks)
			first := geom.FirstPage(id)
			for _, p := range []int{0, 1, 37, 100, 300, 301} {
				dv.buf.Put(first+mem.PageID((p+n)%geom.PagesPerVABlock), p%2 == 0, j, now, now)
			}
		}
		dv.drv.OnFault()
	}
	r.eng.Run()
}

// TestServiceChainSteadyStateAllocFree pins the driver's per-block
// service chain (serviceBlock → ensureAlloc/evict → migrate → mapBlock
// → afterMap, or serviceRemote → afterRemote), together with the fetch,
// preprocess and batch-end steps around it: once the rig is warm, a
// batch allocates nothing, for every replay policy, with prefetching on
// and off, on one device and on two sharing a residency map.
func TestServiceChainSteadyStateAllocFree(t *testing.T) {
	policies := []driver.ReplayPolicy{driver.ReplayBlock, driver.ReplayBatch, driver.ReplayBatchFlush, driver.ReplayOnce}
	for _, K := range []int{1, 2} {
		for _, pol := range policies {
			for _, pf := range []string{"none", "density"} {
				t.Run(fmt.Sprintf("K=%d/%s/%s", K, pol, pf), func(t *testing.T) {
					r := newChainRig(t, K, pol, pf)
					n := 0
					for ; n < 4*rangeBlocks; n++ {
						r.round(n) // warm pools, tables and the event heap
					}
					var evictions, remoteMaps uint64
					for _, dv := range r.devs {
						evictions += dv.drv.Metrics().Counter("evictions").Get()
						if K > 1 {
							remoteMaps += dv.drv.Metrics().Counter("remote_map_services").Get()
						}
					}
					if evictions == 0 || (K > 1 && remoteMaps == 0) {
						t.Fatalf("warm-up made %d evictions and %d remote maps; the rig misses a service path", evictions, remoteMaps)
					}
					if a := testing.AllocsPerRun(50, func() {
						r.round(n)
						n++
					}); a != 0 {
						t.Errorf("a warm batch allocates %v times, want 0", a)
					}
				})
			}
		}
	}
}
