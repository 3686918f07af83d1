package serve

import (
	"testing"
	"time"

	"uvmsim/internal/cell"
	"uvmsim/internal/sim"
)

func TestFingerprintCanonicalAcrossDefaultSpellings(t *testing.T) {
	implicit := SweepRequest{}.withDefaults()
	d := cell.Default()
	explicit := SweepRequest{
		Workload:   d.Workload,
		GPUMemMiB:  d.GPUMemoryBytes >> 20,
		Footprints: []float64{d.Footprint},
		Prefetch:   []string{d.Prefetch},
		Replay:     []string{d.Replay.String()},
		Evict:      []string{d.Evict},
		Batch:      []int{d.Batch},
		VABlockKiB: []int64{d.VABlock >> 10},
	}.withDefaults()
	var none sim.Budget
	if implicit.fingerprint("sim", none) != explicit.fingerprint("sim", none) {
		t.Fatalf("default spellings fingerprint differently:\n%s\n%s",
			implicit.fingerprint("sim", none), explicit.fingerprint("sim", none))
	}
	// Empty strings inside a list canonicalize to the default too.
	mixed := SweepRequest{Prefetch: []string{""}}.withDefaults()
	if mixed.fingerprint("sim", none) != implicit.fingerprint("sim", none) {
		t.Fatal("empty list element did not canonicalize to the default")
	}
}

func TestFingerprintExcludesTimeoutIncludesBudget(t *testing.T) {
	a := SweepRequest{TimeoutMs: 5}.withDefaults()
	b := SweepRequest{TimeoutMs: 5000}.withDefaults()
	var none sim.Budget
	if a.fingerprint("sim", none) != b.fingerprint("sim", none) {
		t.Fatal("timeout leaked into the fingerprint — wall-clock limits never change result bytes")
	}
	tight := sim.Budget{MaxEvents: 10}
	if a.fingerprint("sim", none) == a.fingerprint("sim", tight) {
		t.Fatal("budget missing from the fingerprint — budgets change the response")
	}
	if a.fingerprint("sim", none) == a.fingerprint("sweep", none) {
		t.Fatal("shape missing from the fingerprint — sim and sweep bodies differ")
	}
}

func TestBudgetResolution(t *testing.T) {
	def := sim.Budget{MaxEvents: 1000, SimDeadline: sim.Time(time.Second)}
	cap := sim.Budget{MaxEvents: 5000}

	// Zero request inherits the default.
	got := BudgetRequest{}.budget(def, cap)
	if got.MaxEvents != 1000 || got.SimDeadline != def.SimDeadline {
		t.Fatalf("zero request = %+v, want default", got)
	}
	// A request may tighten below the default.
	got = BudgetRequest{MaxEvents: 10}.budget(def, cap)
	if got.MaxEvents != 10 {
		t.Fatalf("tightened = %+v", got)
	}
	// …but never escape the cap.
	got = BudgetRequest{MaxEvents: 1_000_000}.budget(def, cap)
	if got.MaxEvents != 5000 {
		t.Fatalf("capped = %+v, want 5000", got)
	}
	// An unlimited request under a cap becomes the cap.
	got = BudgetRequest{}.budget(sim.Budget{}, cap)
	if got.MaxEvents != 5000 {
		t.Fatalf("unlimited under cap = %+v, want cap", got)
	}
	// No default, no cap: unlimited stays unlimited.
	got = BudgetRequest{}.budget(sim.Budget{}, sim.Budget{})
	if got.MaxEvents != 0 || got.SimDeadline != 0 {
		t.Fatalf("unbounded = %+v, want zero", got)
	}
}

// A partially specified single-cell request resolves to exactly the one
// defaulted cell of the equivalent singleton sweep.
func TestSimRequestLiftsToSingletonSweep(t *testing.T) {
	r := SimRequest{Workload: "regular", Footprint: 0.75, Prefetch: "none", Batch: 128}
	c, err := r.resolve(sim.Budget{}, sim.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	s := SweepRequest{Workload: r.Workload, Footprints: []float64{r.Footprint},
		Prefetch: []string{r.Prefetch}, Batch: []int{r.Batch}}.withDefaults()
	configs, err := s.spec(sim.Budget{}, sim.Budget{}).Configs()
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 1 {
		t.Fatalf("singleton lift produced %d cells", len(configs))
	}
	if configs[0] != c || configs[0].Label() != c.Label() {
		t.Fatalf("singleton sweep cell %+v (%q), resolved request %+v (%q)", configs[0], configs[0].Label(), c, c.Label())
	}
}
