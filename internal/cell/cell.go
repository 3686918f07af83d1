// Package cell defines the one identity of a simulation cell: the
// workload, the scale, the seed, and every driver knob the paper varies
// one at a time (prefetch, replay policy, eviction, batch size, VABlock
// granularity), plus the multi-GPU axes and the deterministic budget.
//
// Every front end speaks this type. A sweep enumerates cells, the
// distributed fabric leases them as JSON, the serve tier resolves its
// requests into them, and the CLIs build their system configuration
// from one. The cell's label, and so its confighash key, is derived
// here and nowhere else, which is what keeps a journal written by one
// front end resumable by another.
package cell

import (
	"encoding/json"
	"fmt"

	"uvmsim/internal/confighash"
	"uvmsim/internal/core"
	"uvmsim/internal/driver"
	"uvmsim/internal/gpusim"
	"uvmsim/internal/multigpu"
	"uvmsim/internal/sim"
	"uvmsim/internal/workloads"
)

// Spec is one fully-resolved cell.
type Spec struct {
	// Workload names the workload generator.
	Workload string
	// GPUMemoryBytes is the framebuffer size per device.
	GPUMemoryBytes int64
	// Seed drives the system's randomness; the workload's parameters
	// derive Seed+100, as the paper-reproduction experiments do.
	Seed uint64
	// Footprint is the data size as a fraction of GPU memory.
	Footprint float64
	// Prefetch and Evict are policy names (see prefetch.New, evict.New;
	// an eviction policy may carry the +thrash suffix).
	Prefetch string
	Replay   driver.ReplayPolicy
	Evict    string
	// Batch is the fault batch size; VABlock the granularity in bytes.
	Batch   int
	VABlock int64
	// GPUs is the device count K ≥ 1; Migration is the multi-GPU
	// placement policy, meaningful only when GPUs > 1.
	GPUs      int
	Migration multigpu.Policy
	// Budget bounds the run. It is part of the cell because a budget
	// trip is a property of the configuration, not of who runs it.
	Budget sim.Budget
}

// Default returns the canonical defaults: the cell every front end runs
// for the knobs its caller leaves out.
func Default() Spec {
	return Spec{
		Workload:       "regular",
		GPUMemoryBytes: 96 << 20,
		Seed:           1,
		Footprint:      0.5,
		Prefetch:       "density",
		Replay:         driver.ReplayBatchFlush,
		Evict:          "lru",
		Batch:          256,
		VABlock:        2 << 20,
		GPUs:           1,
		Migration:      multigpu.FirstTouch,
	}
}

// Validate resolves every name and bound in the cell. Nothing needs to
// have run for it to fail.
func (c Spec) Validate() error {
	if _, err := workloads.Get(c.Workload); err != nil {
		return err
	}
	if c.GPUMemoryBytes <= 0 {
		return fmt.Errorf("cell: GPU memory %d must be positive", c.GPUMemoryBytes)
	}
	if !(c.Footprint > 0) {
		return fmt.Errorf("cell: footprint %g must be positive", c.Footprint)
	}
	if _, err := driver.ParseReplayPolicy(c.Replay.String()); err != nil {
		return err
	}
	if c.Batch <= 0 {
		return fmt.Errorf("cell: batch size %d must be positive", c.Batch)
	}
	if c.VABlock <= 0 {
		return fmt.Errorf("cell: VABlock size %d must be positive", c.VABlock)
	}
	if c.GPUs < 1 {
		return fmt.Errorf("cell: GPU count %d must be at least 1", c.GPUs)
	}
	if c.GPUs > multigpu.MaxDevices {
		return fmt.Errorf("cell: GPU count %d exceeds the supported maximum %d", c.GPUs, multigpu.MaxDevices)
	}
	return core.ValidatePolicies(c.Config())
}

// Label renders the cell as a replay recipe: every knob plus the seed.
// Single-GPU cells render exactly the pre-multi-GPU label (K=1
// elision), so every historical label and confighash is preserved.
func (c Spec) Label() string {
	base := fmt.Sprintf("workload=%s footprint=%g prefetch=%s replay=%s evict=%s batch=%d vablock=%dKiB seed=%d",
		c.Workload, c.Footprint, c.Prefetch, c.Replay, c.Evict, c.Batch, c.VABlock>>10, c.Seed)
	if c.GPUs > 1 {
		base += fmt.Sprintf(" gpus=%d migration=%s", c.GPUs, c.Migration)
	}
	return base
}

// Key is the cell's confighash: the journal, lease-dedup and cache-ring
// key.
func (c Spec) Key() string { return confighash.Sum(c.Label()) }

// Config is the system configuration that runs the cell. Callers add
// host-side wiring (observability, cancellation, tracing) on top.
func (c Spec) Config() core.Config {
	cfg := core.DefaultConfig(c.GPUMemoryBytes)
	cfg.Seed = c.Seed
	cfg.PrefetchPolicy = c.Prefetch
	cfg.EvictPolicy = c.Evict
	cfg.Driver.Policy = c.Replay
	cfg.Driver.BatchSize = c.Batch
	cfg.VABlockSize = c.VABlock
	if c.GPUs > 1 {
		cfg.GPUs = c.GPUs
		cfg.Migration = c.Migration
	}
	cfg.Budget = c.Budget
	return cfg
}

// Kernel builds the cell's workload on sys: Footprint of GPU memory in
// data, with the workload parameters seeded Seed+100.
func (c Spec) Kernel(sys *core.System) (*gpusim.Kernel, error) {
	build, err := workloads.Get(c.Workload)
	if err != nil {
		return nil, err
	}
	p := workloads.DefaultParams()
	p.Seed = c.Seed + 100
	return build(sys, int64(c.Footprint*float64(c.GPUMemoryBytes)), p)
}

// wire is the cell's JSON form, the lease fabric's wire contract. The
// multi-GPU keys appear only on multi-GPU cells, so a K=1 cell
// serializes exactly as it did before the axes existed; the budget
// rides as flat fields that vanish when unset.
type wire struct {
	Workload       string  `json:"workload"`
	GPUMemoryBytes int64   `json:"gpu_mem_bytes"`
	Seed           uint64  `json:"seed"`
	Footprint      float64 `json:"footprint"`
	Prefetch       string  `json:"prefetch"`
	Replay         string  `json:"replay"`
	Evict          string  `json:"evict"`
	Batch          int     `json:"batch"`
	VABlockBytes   int64   `json:"vablock_bytes"`
	GPUs           int     `json:"gpus,omitempty"`
	Migration      string  `json:"migration,omitempty"`
	SimDeadlineNs  int64   `json:"sim_deadline_ns,omitempty"`
	MaxEvents      uint64  `json:"max_events,omitempty"`
	LivelockWindow uint64  `json:"livelock_window,omitempty"`
}

// MarshalJSON encodes the wire form.
func (c Spec) MarshalJSON() ([]byte, error) {
	w := wire{
		Workload: c.Workload, GPUMemoryBytes: c.GPUMemoryBytes, Seed: c.Seed, Footprint: c.Footprint,
		Prefetch: c.Prefetch, Replay: c.Replay.String(), Evict: c.Evict, Batch: c.Batch, VABlockBytes: c.VABlock,
		SimDeadlineNs: int64(c.Budget.SimDeadline), MaxEvents: c.Budget.MaxEvents, LivelockWindow: c.Budget.LivelockWindow,
	}
	if c.GPUs > 1 {
		w.GPUs, w.Migration = c.GPUs, c.Migration.String()
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the wire form. Policy names must parse; a cell
// without the multi-GPU keys (or with K ≤ 1) is the single-GPU cell.
func (c *Spec) UnmarshalJSON(b []byte) error {
	var w wire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	replay, err := driver.ParseReplayPolicy(w.Replay)
	if err != nil {
		return err
	}
	migration, err := multigpu.ParsePolicy(w.Migration)
	if err != nil {
		return err
	}
	if w.GPUs <= 1 {
		w.GPUs, migration = 1, multigpu.FirstTouch
	}
	*c = Spec{
		Workload: w.Workload, GPUMemoryBytes: w.GPUMemoryBytes, Seed: w.Seed, Footprint: w.Footprint,
		Prefetch: w.Prefetch, Replay: replay, Evict: w.Evict, Batch: w.Batch, VABlock: w.VABlockBytes,
		GPUs: w.GPUs, Migration: migration,
		Budget: sim.Budget{SimDeadline: sim.Time(w.SimDeadlineNs), MaxEvents: w.MaxEvents, LivelockWindow: w.LivelockWindow},
	}
	return nil
}
