// Package sweep expands a generic parameter sweep — one workload crossed
// with prefetch policy, replay policy, eviction policy, fault batch
// size, VABlock granularity, and footprint fraction — into independent
// simulation configurations and executes them across the worker pool.
//
// The package exists so sweeps behave like first-class experiments:
// every flag combination is validated before any cell runs (a typo in
// the last policy name fails in milliseconds, not after minutes of
// simulation), cells fan out across parallel.Map with index-ordered
// collection so the emitted table is byte-identical at every worker
// count, and a crashing cell aborts the sweep with the offending
// configuration and seed attached.
package sweep

import (
	"context"
	"fmt"
	"math"

	"uvmsim/internal/cell"
	"uvmsim/internal/core"
	"uvmsim/internal/driver"
	"uvmsim/internal/multigpu"
	"uvmsim/internal/obs"
	"uvmsim/internal/sim"
	"uvmsim/internal/stats"
)

// Spec describes a sweep: the cross product of every list field, run on
// the named workload at the given scale.
type Spec struct {
	// Workload names the workload generator every cell runs.
	Workload string
	// GPUMemoryBytes is the framebuffer size per cell.
	GPUMemoryBytes int64
	// Seed drives all randomness (workload params derive Seed+100, as
	// the paper-reproduction experiments do).
	Seed uint64
	// Footprints are data sizes as fractions of GPU memory.
	Footprints []float64
	// Prefetch, Replay, and Evict are policy-name lists.
	Prefetch []string
	Replay   []string
	Evict    []string
	// Batch lists fault batch sizes; VABlock lists granularities in bytes.
	Batch   []int
	VABlock []int64
	// GPUs lists device counts (empty means [1]); Migration lists
	// multi-GPU page-placement policy names (empty means first-touch).
	// Cells with one GPU ignore the migration axis — the cross product
	// collapses so a K=1 cell appears exactly once.
	GPUs      []int
	Migration []string
	// Jobs bounds the worker pool: 1 is strictly serial, <= 0 NumCPU.
	Jobs int
	// Obs, when non-nil, collects per-cell spans and metrics. Each cell
	// registers under its Label, so exports sort identically at every
	// Jobs value. Lifecycle additionally tracks per-fault latencies.
	Obs       *obs.Collector
	Lifecycle bool
	// Budget bounds every cell in simulated time, event count, and
	// forward progress; a tripped cell journals deadline/livelock and the
	// sweep continues without its row.
	Budget sim.Budget
	// Retries is how many times a transiently-failed cell (panic or
	// ordinary error) is re-run with bounded exponential backoff before
	// the sweep aborts. Budget trips are deterministic and never retried.
	Retries int
	// Journal, when set, appends every cell's terminal outcome to this
	// crash-safe JSONL file as the sweep runs.
	Journal string
	// Resume replays Journal before running: completed cells reuse their
	// journaled rows, budget-tripped cells stay skipped, and only
	// unfinished cells execute.
	Resume bool
	// Progress, when non-nil, is invoked after each cell settles (any
	// terminal state, including cells reused from the resume journal)
	// with the number of settled cells and the total. It runs on worker
	// goroutines and must be safe for concurrent use; the serving layer
	// wires it to async-job progress polling.
	Progress func(done, total int)
	// OnMetrics, when non-nil, receives each completed cell's
	// metrics-registry snapshot right after its run finishes. It runs on
	// worker goroutines and must be safe for concurrent use; the serving
	// layer folds the snapshots into its cumulative /metrics registry.
	OnMetrics func(c cell.Spec, samples []obs.Sample)

	// cancel is set by RunContext and polled by every cell's engine.
	cancel *sim.Cancel
}

// Single returns the one-cell sweep that runs c. Running it takes the
// exact validation, governance, and row-rendering path every sweep
// takes, which is what makes a cell run anywhere render the same row.
func Single(c cell.Spec) *Spec {
	return &Spec{
		Workload:       c.Workload,
		GPUMemoryBytes: c.GPUMemoryBytes,
		Seed:           c.Seed,
		Footprints:     []float64{c.Footprint},
		Prefetch:       []string{c.Prefetch},
		Replay:         []string{c.Replay.String()},
		Evict:          []string{c.Evict},
		Batch:          []int{c.Batch},
		VABlock:        []int64{c.VABlock},
		GPUs:           []int{c.GPUs},
		Migration:      []string{c.Migration.String()},
		Budget:         c.Budget,
		Jobs:           1,
	}
}

// Validate resolves every name and bound in the spec up front. Nothing
// has run yet when it fails.
func (s *Spec) Validate() error {
	_, err := s.Configs()
	return err
}

// Cells returns how many cells Configs enumerates, without enumerating
// them: the product of the list lengths, counting one migration entry
// for each single-GPU device count (the axis collapses at K=1). It
// saturates at math.MaxInt, so a request-sized spec can be bounded
// before anything proportional to its cross product is allocated.
func (s *Spec) Cells() int {
	migration := max(len(s.Migration), 1)
	perGPUs := 0
	if len(s.GPUs) == 0 {
		perGPUs = 1
	}
	for _, k := range s.GPUs {
		if k <= 1 {
			perGPUs = addSat(perGPUs, 1)
		} else {
			perGPUs = addSat(perGPUs, migration)
		}
	}
	n := perGPUs
	for _, l := range []int{len(s.Footprints), len(s.Prefetch), len(s.Replay), len(s.Evict), len(s.Batch), len(s.VABlock)} {
		n = mulSat(n, l)
	}
	return n
}

// addSat and mulSat are non-negative int arithmetic saturating at
// math.MaxInt.
func addSat(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

func mulSat(a, b int) int {
	if a != 0 && b > math.MaxInt/a {
		return math.MaxInt
	}
	return a * b
}

// Configs expands the cross product in deterministic declaration order:
// footprint outermost, then prefetch, replay, evict, batch, VABlock,
// GPUs, migration — the same nesting the serial CLI always printed, with
// the multi-GPU axes innermost — and validates every cell. Empty
// GPUs/Migration lists default to single-GPU first-touch, and
// single-GPU cells collapse the migration axis (the policy is
// meaningless at K=1, and collapsing keeps labels — and therefore
// confighashes — unique).
func (s *Spec) Configs() ([]cell.Spec, error) {
	if len(s.Footprints) == 0 || len(s.Prefetch) == 0 || len(s.Replay) == 0 ||
		len(s.Evict) == 0 || len(s.Batch) == 0 || len(s.VABlock) == 0 {
		return nil, fmt.Errorf("sweep: empty dimension (footprints=%d prefetch=%d replay=%d evict=%d batch=%d vablock=%d)",
			len(s.Footprints), len(s.Prefetch), len(s.Replay), len(s.Evict), len(s.Batch), len(s.VABlock))
	}
	replay := make([]driver.ReplayPolicy, len(s.Replay))
	for i, name := range s.Replay {
		var err error
		if replay[i], err = driver.ParseReplayPolicy(name); err != nil {
			return nil, err
		}
	}
	names := s.Migration
	if len(names) == 0 {
		names = []string{multigpu.FirstTouch.String()}
	}
	migration := make([]multigpu.Policy, len(names))
	for i, name := range names {
		var err error
		if migration[i], err = multigpu.ParsePolicy(name); err != nil {
			return nil, err
		}
	}
	gpus := s.GPUs
	if len(gpus) == 0 {
		gpus = []int{1}
	}
	n := s.Cells()
	if n == math.MaxInt {
		return nil, fmt.Errorf("sweep: cross product overflows int")
	}
	out := make([]cell.Spec, 0, n)
	c := cell.Spec{Workload: s.Workload, GPUMemoryBytes: s.GPUMemoryBytes, Seed: s.Seed, Budget: s.Budget}
	for _, c.Footprint = range s.Footprints {
		for _, c.Prefetch = range s.Prefetch {
			for _, c.Replay = range replay {
				for _, c.Evict = range s.Evict {
					for _, c.Batch = range s.Batch {
						for _, c.VABlock = range s.VABlock {
							for _, c.GPUs = range gpus {
								for mi, mpol := range migration {
									if c.GPUs <= 1 {
										if mi > 0 {
											continue // migration axis collapses at K=1
										}
										mpol = multigpu.FirstTouch
									}
									c.Migration = mpol
									if err := c.Validate(); err != nil {
										return nil, err
									}
									out = append(out, c)
								}
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// Headers returns the sweep table's column names.
func Headers() []string {
	return []string{
		"footprint_pct", "prefetch", "replay", "evict", "batch", "vablock_kb",
		"total_ms", "faults", "evictions", "h2d_mb", "d2h_mb", "stall_ms",
	}
}

// runConfig executes one cell. It is a variable so tests can substitute
// a crashing cell and assert the pool's panic containment.
var runConfig = func(s *Spec, c cell.Spec) ([]interface{}, error) {
	cfg := c.Config()
	cfg.Obs = obs.Options{Collector: s.Obs, Label: c.Label(), Lifecycle: s.Lifecycle}
	cfg.Cancel = s.cancel
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	k, err := c.Kernel(sys)
	if err != nil {
		return nil, err
	}
	res, err := sys.RunUVM(k)
	if err != nil {
		return nil, err
	}
	if s.OnMetrics != nil {
		s.OnMetrics(c, sys.Metrics().Samples())
	}
	return []interface{}{
		c.Footprint * 100, c.Prefetch, c.Replay.String(), c.Evict, c.Batch, c.VABlock >> 10,
		float64(res.TotalTime.Micros()) / 1000, res.Faults, res.Evictions,
		float64(res.BytesH2D) / (1 << 20), float64(res.BytesD2H) / (1 << 20),
		float64(res.GPU.StallTime.Micros()) / 1000,
	}, nil
}

// Run validates the spec, fans the cells out across Jobs workers, and
// returns the result table with one row per configuration in cross
// product order. The table is byte-identical at every Jobs value.
func (s *Spec) Run() (*stats.Table, error) {
	res, err := s.RunContext(context.Background())
	if err != nil {
		return nil, err
	}
	return res.Table, nil
}
