// Command uvmdbg runs a single workload cell with live progress output —
// the diagnostic loupe for pathological configurations (thrash storms,
// livelocks, starvation). With -events it additionally streams warp-level
// execution events.
//
// Usage:
//
//	uvmdbg -workload random -footprint 1.25 -prefetch none
//	uvmdbg -workload sgemm -footprint 1.7 -interval 1s
//	uvmdbg -workload regular -footprint 0.1 -events | head -100
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"uvmsim/internal/cell"
	"uvmsim/internal/core"
	"uvmsim/internal/gpusim"
)

func main() {
	var (
		workload  = flag.String("workload", "random", "workload name")
		gpuMB     = flag.Int64("gpu-mem", 96, "GPU framebuffer in MiB")
		footprint = flag.Float64("footprint", 1.25, "data footprint as a fraction of GPU memory")
		prefetch  = flag.String("prefetch", "density", "prefetch policy")
		evictPol  = flag.String("evict", "lru", "eviction policy")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		interval  = flag.Duration("interval", 2*time.Second, "progress print interval (host time)")
		events    = flag.Bool("events", false, "stream warp-level events to stdout (very verbose)")
	)
	flag.Parse()

	c := cell.Default()
	c.Workload, c.GPUMemoryBytes, c.Footprint = *workload, *gpuMB<<20, *footprint
	c.Prefetch, c.Evict, c.Seed = *prefetch, *evictPol, *seed
	sys, err := core.NewSystem(c.Config())
	if err != nil {
		fatal(err)
	}
	if *events {
		gpusim.SetDebugLog(func(f string, a ...interface{}) { fmt.Printf(f+"\n", a...) })
		defer gpusim.SetDebugLog(nil)
	}
	k, err := c.Kernel(sys)
	if err != nil {
		fatal(err)
	}

	stop := make(chan struct{})
	go func() {
		tick := time.NewTicker(*interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				gs := sys.GPU().Stats()
				c := sys.Driver().Counters()
				fmt.Fprintf(os.Stderr,
					"sim=%v events=%d resident=%d faults=%d evictions=%d blocked=%d accesses=%d throttled=%d replays=%d\n",
					sys.Engine().Now(), sys.Engine().Executed(), sys.ResidentPages(),
					c.Get("faults_fetched"), c.Get("evictions"),
					sys.GPU().BlockedWarps(), gs.Accesses, gs.FaultsThrottled, gs.Replays)
			}
		}
	}()
	res, err := sys.RunUVM(k)
	close(stop)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("done: time=%v faults=%d evictions=%d h2d=%.1fMB d2h=%.1fMB stall=%v (p50=%v p99=%v)\n",
		res.TotalTime, res.Faults, res.Evictions,
		float64(res.BytesH2D)/(1<<20), float64(res.BytesD2H)/(1<<20),
		res.GPU.StallTime,
		sys.GPU().StallHistogram().Quantile(0.5),
		sys.GPU().StallHistogram().Quantile(0.99))
	fmt.Printf("breakdown: %s\n", res.Breakdown.String())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "uvmdbg:", err)
	os.Exit(1)
}
