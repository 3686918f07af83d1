package sweep

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"uvmsim/internal/cell"
	"uvmsim/internal/obs"
)

func hookSpec() *Spec {
	return &Spec{
		Workload:       "random",
		GPUMemoryBytes: 16 << 20,
		Seed:           1,
		Footprints:     []float64{0.25, 0.5},
		Prefetch:       []string{"none", "density"},
		Replay:         []string{"batchflush"},
		Evict:          []string{"lru"},
		Batch:          []int{256},
		VABlock:        []int64{2 << 20},
		Jobs:           4,
	}
}

// TestProgressHook: every cell settles exactly once, the final call
// reports (total, total), and done values cover 1..total.
func TestProgressHook(t *testing.T) {
	s := hookSpec()
	var mu sync.Mutex
	seen := make(map[int]bool)
	var calls atomic.Int64
	total := 0
	s.Progress = func(done, n int) {
		calls.Add(1)
		mu.Lock()
		seen[done] = true
		total = n
		mu.Unlock()
	}
	if _, err := s.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := int(calls.Load()), 4; got != want {
		t.Fatalf("Progress called %d times, want %d", got, want)
	}
	if total != 4 {
		t.Fatalf("Progress total = %d, want 4", total)
	}
	for d := 1; d <= 4; d++ {
		if !seen[d] {
			t.Fatalf("Progress never reported done=%d (saw %v)", d, seen)
		}
	}
}

// TestOnMetricsHook: each completed cell delivers a non-empty registry
// snapshot that can be absorbed into a cumulative registry.
func TestOnMetricsHook(t *testing.T) {
	s := hookSpec()
	var mu sync.Mutex
	cum := obs.NewRegistry()
	cells := 0
	s.OnMetrics = func(c cell.Spec, samples []obs.Sample) {
		if len(samples) == 0 {
			t.Error("OnMetrics got empty snapshot")
		}
		mu.Lock()
		cum.Absorb("sim_", samples)
		cells++
		mu.Unlock()
	}
	if _, err := s.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if cells != 4 {
		t.Fatalf("OnMetrics called for %d cells, want 4", cells)
	}
	// Random-access cells always fault, so the cumulative counter must
	// have absorbed something.
	if got := cum.Counter("sim_faults_fetched").Get(); got == 0 {
		t.Fatal("absorbed sim_faults_fetched = 0, want > 0")
	}
}
