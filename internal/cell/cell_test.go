package cell

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"uvmsim/internal/driver"
	"uvmsim/internal/multigpu"
	"uvmsim/internal/sim"
)

func TestDefaultIsValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

// The K=1 label is the pre-multi-GPU label, whatever migration policy
// the cell carries; K>1 appends both axes.
func TestLabelElidesSingleGPU(t *testing.T) {
	c := Default()
	const want = "workload=regular footprint=0.5 prefetch=density replay=batchflush evict=lru batch=256 vablock=2048KiB seed=1"
	c.Migration = multigpu.AccessCounter
	if got := c.Label(); got != want {
		t.Errorf("K=1 label = %q, want %q", got, want)
	}
	c.GPUs = 4
	if got := c.Label(); got != want+" gpus=4 migration=access-counter" {
		t.Errorf("K=4 label = %q", got)
	}
}

func TestValidateRejects(t *testing.T) {
	for name, mut := range map[string]func(*Spec){
		"workload":  func(c *Spec) { c.Workload = "nosuch" },
		"memory":    func(c *Spec) { c.GPUMemoryBytes = 0 },
		"footprint": func(c *Spec) { c.Footprint = -1 },
		"prefetch":  func(c *Spec) { c.Prefetch = "bogus" },
		"replay":    func(c *Spec) { c.Replay = driver.ReplayPolicy(99) },
		"evict":     func(c *Spec) { c.Evict = "bogus+thrash" },
		"batch":     func(c *Spec) { c.Batch = 0 },
		"vablock":   func(c *Spec) { c.VABlock = -4096 },
		"gpus":      func(c *Spec) { c.GPUs = 0 },
		"max gpus":  func(c *Spec) { c.GPUs = multigpu.MaxDevices + 1 },
		"migration": func(c *Spec) { c.GPUs, c.Migration = 2, multigpu.Policy(9) },
	} {
		c := Default()
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("%s: invalid cell passed validation", name)
		}
	}
}

// Config carries every knob into the system configuration.
func TestConfigCarriesEveryKnob(t *testing.T) {
	c := Spec{
		Workload: "random", GPUMemoryBytes: 32 << 20, Seed: 9, Footprint: 1.5,
		Prefetch: "none", Replay: driver.ReplayOnce, Evict: "fifo", Batch: 64, VABlock: 1 << 20,
		GPUs: 2, Migration: multigpu.AccessCounter,
		Budget: sim.Budget{SimDeadline: sim.Time(time.Second), MaxEvents: 7, LivelockWindow: 3},
	}
	cfg := c.Config()
	if cfg.GPUMemoryBytes != c.GPUMemoryBytes || cfg.Seed != 9 || cfg.PrefetchPolicy != "none" ||
		cfg.Driver.Policy != driver.ReplayOnce || cfg.EvictPolicy != "fifo" || cfg.Driver.BatchSize != 64 ||
		cfg.VABlockSize != 1<<20 || cfg.GPUs != 2 || cfg.Migration != multigpu.AccessCounter || cfg.Budget != c.Budget {
		t.Fatalf("config %+v does not carry cell %+v", cfg, c)
	}
}

// checkRoundTrip asserts the wire contract for one decoded cell: encode
// then decode is the identity, the label and key survive, and K≤1 never
// emits the multi-GPU keys.
func checkRoundTrip(t *testing.T, c Spec) {
	t.Helper()
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatalf("encode %+v: %v", c, err)
	}
	var back Spec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("decode %s: %v", b, err)
	}
	if back != c {
		t.Fatalf("round trip changed the cell:\n  in  %+v\n  out %+v\n  via %s", c, back, b)
	}
	if back.Label() != c.Label() || back.Key() != c.Key() {
		t.Fatalf("round trip changed the label: %q vs %q", back.Label(), c.Label())
	}
	if c.GPUs <= 1 && (bytes.Contains(b, []byte(`"gpus"`)) || bytes.Contains(b, []byte(`"migration"`))) {
		t.Fatalf("K=%d cell emitted multi-GPU keys: %s", c.GPUs, b)
	}
}

func FuzzCellSpecJSON(f *testing.F) {
	for _, c := range []Spec{
		Default(),
		{Workload: "random", GPUMemoryBytes: 16 << 20, Seed: 7, Footprint: 1.25, Prefetch: "adaptive",
			Replay: driver.ReplayOnce, Evict: "access-aware+thrash", Batch: 128, VABlock: 512 << 10,
			GPUs: 4, Migration: multigpu.AccessCounter,
			Budget: sim.Budget{SimDeadline: sim.Time(250 * time.Millisecond), MaxEvents: 5_000_000, LivelockWindow: 100_000}},
	} {
		b, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Spec
		if err := json.Unmarshal(data, &c); err != nil {
			return
		}
		if c.Validate() != nil {
			return
		}
		if c.GPUs < 1 {
			t.Fatalf("decoded cell has %d GPUs", c.GPUs)
		}
		if c.GPUs == 1 && c.Migration != multigpu.FirstTouch {
			t.Fatalf("decoded K=1 cell kept migration %s", c.Migration)
		}
		checkRoundTrip(t, c)
		if l := c.Label(); l != c.Label() || !strings.HasPrefix(l, "workload=") || c.Key() != c.Key() {
			t.Fatalf("unstable label %q", l)
		}
	})
}
