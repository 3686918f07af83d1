// Command uvmreport runs one workload with tracing enabled and prints a
// deep workload analysis: the driver-phase breakdown, derived locality
// metrics, per-range activity, hot blocks, and an ASCII rendering of the
// paper's Fig. 7/8 access-pattern scatter (faults as dots, evictions as
// E marks).
//
// Usage:
//
//	uvmreport -workload random
//	uvmreport -workload sgemm -footprint 1.2
//	uvmreport -workload tealeaf -prefetch none -width 100 -height 24
package main

import (
	"flag"
	"fmt"
	"os"

	"uvmsim/internal/analyze"
	"uvmsim/internal/cell"
	"uvmsim/internal/core"
	"uvmsim/internal/govern"
	"uvmsim/internal/plot"
	"uvmsim/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	def := cell.Default()
	var (
		workload  = flag.String("workload", def.Workload, "workload name")
		gpuMB     = flag.Int64("gpu-mem", def.GPUMemoryBytes>>20, "GPU framebuffer in MiB")
		footprint = flag.Float64("footprint", def.Footprint, "data footprint as a fraction of GPU memory")
		prefetch  = flag.String("prefetch", def.Prefetch, "prefetch policy")
		evictPol  = flag.String("evict", def.Evict, "eviction policy")
		seed      = flag.Uint64("seed", def.Seed, "simulation seed")
		width     = flag.Int("width", 78, "chart width")
		height    = flag.Int("height", 20, "chart height")
		noChart   = flag.Bool("no-chart", false, "skip the ASCII scatter")
		counters  = flag.Bool("counters", true, "print the driver event counters")
	)
	var gf govern.Flags
	gf.Register()
	flag.Parse()

	ctx, stop := gf.Context()
	defer stop()

	c := def
	c.Workload, c.GPUMemoryBytes, c.Footprint = *workload, *gpuMB<<20, *footprint
	c.Prefetch, c.Evict, c.Seed, c.Budget = *prefetch, *evictPol, *seed, gf.Budget()
	cfg := c.Config()
	cfg.TraceCapacity = -1
	cfg.Cancel = govern.WatchContext(ctx)
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return fatal(err)
	}
	k, err := c.Kernel(sys)
	if err != nil {
		return fatal(err)
	}
	res, err := sys.RunUVM(k)
	if err != nil {
		return fatal(err)
	}

	fmt.Printf("%s: %.0f%% of %d MiB GPU, prefetch=%s, evict=%s\n",
		*workload, *footprint*100, *gpuMB, *prefetch, *evictPol)
	fmt.Printf("total=%v  driver breakdown: %s\n\n", res.TotalTime, res.Breakdown.String())

	if *counters {
		// The driver's metrics registry in name order: event counters
		// (including the fault-buffer health accounting — overflow a report
		// would otherwise silently absorb), gauges, and the batch-shape
		// histograms with their percentiles.
		fmt.Println("driver metrics:")
		for _, s := range sys.Metrics().Samples() {
			if s.Hist != nil {
				fmt.Printf("  %-26s n=%-8d mean=%-10v p50=%-10v p99=%-10v max=%v\n",
					s.Name, s.Hist.Count(), s.Hist.Mean(),
					s.Hist.Quantile(0.5), s.Hist.Quantile(0.99), s.Hist.Max())
				continue
			}
			fmt.Printf("  %-26s %d\n", s.Name, s.Value)
		}
		fmt.Println()
	}

	rep, err := analyze.Analyze(sys.Trace(), sys.Space())
	if err != nil {
		return fatal(err)
	}
	if err := rep.Table("workload analysis").WriteText(os.Stdout); err != nil {
		return fatal(err)
	}
	fmt.Println()
	if err := rep.RangeTable().WriteText(os.Stdout); err != nil {
		return fatal(err)
	}

	hot := analyze.HotBlocks(sys.Trace(), 5)
	if len(hot) > 0 {
		fmt.Println("\nhottest VABlocks by fault count:")
		for _, h := range hot {
			fmt.Printf("  block %-6d %d faults\n", h.Block, h.Faults)
		}
	}

	if !*noChart {
		fmt.Println()
		fmt.Print(scatter(sys, *width, *height))
	}
	return govern.ExitOK
}

// scatter renders the Fig. 7/8-style access pattern: fault occurrence
// order on x, gap-free page index on y, evictions overlaid as E.
func scatter(sys *core.System, w, h int) string {
	comp := trace.NewCompressor(sys.Space())
	var fx, fy, ex, ey []float64
	n := 0
	for _, e := range sys.Trace().Events() {
		idx := comp.Index(e.Page)
		if idx < 0 {
			continue
		}
		switch e.Kind {
		case trace.KindFault:
			fx = append(fx, float64(n))
			fy = append(fy, float64(idx))
			n++
		case trace.KindEvict:
			ex = append(ex, float64(n))
			ey = append(ey, float64(idx))
		}
	}
	c := plot.NewCanvas(w, h).
		Title("access pattern (x = fault occurrence, y = page index, E = eviction)").
		Labels("fault occurrence", "page")
	c.SetScale(0, float64(maxInt(n-1, 1)), 0, float64(comp.Total()-1))
	c.Scatter(fx, fy, '.')
	c.Scatter(ex, ey, 'E')
	return c.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// fatal classifies err through the governance taxonomy: a SIGINT exits
// 130 and a tripped budget exits 3 instead of a generic 1.
func fatal(err error) int {
	st := govern.StatusOf(err)
	fmt.Fprintf(os.Stderr, "uvmreport: %s: %v\n", st.State, err)
	return govern.ExitCode(st.State)
}
