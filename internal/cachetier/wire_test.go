package cachetier

import (
	"bytes"
	"context"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"uvmsim/internal/dist"
	"uvmsim/internal/sim"
	"uvmsim/internal/sweep"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// leasedCell returns the wire cell a coordinator grants for a one-cell
// sweep — the exact value the write-through hook receives.
func leasedCell(t *testing.T, gpus int, migration string, budget sim.Budget) dist.CellSpec {
	t.Helper()
	co, err := dist.NewCoordinator(&sweep.Spec{
		Workload: "random", GPUMemoryBytes: 16 << 20, Seed: 7,
		Footprints: []float64{1.25}, Prefetch: []string{"adaptive"}, Replay: []string{"once"},
		Evict: []string{"access-aware+thrash"}, Batch: []int{128}, VABlock: []int64{512 << 10},
		GPUs: []int{gpus}, Migration: []string{migration}, Budget: budget, Jobs: 1,
	}, dist.CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	lr := co.Acquire("w")
	if lr.Cell == nil {
		t.Fatalf("no cell granted: %+v", lr)
	}
	return *lr.Cell
}

// The /v1/cachefill body is the coordinator↔uvmserved wire contract: a
// node of another build must re-derive the same key and label from the
// same bytes.
func TestCacheFillWireGolden(t *testing.T) {
	var mu sync.Mutex
	var body []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		body = b
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"hash":"h","stored":true}`+"\n")
	}))
	defer ts.Close()
	tier := New(Config{Nodes: []string{ts.URL}, ProbeInterval: -1})
	row := []string{"125.00", "adaptive", "once", "access-aware+thrash", "128", "512",
		"1.00", "2", "3", "4.00", "5.00", "6"}
	budget := sim.Budget{SimDeadline: sim.Time(250 * time.Millisecond), MaxEvents: 5_000_000, LivelockWindow: 100_000}
	for _, tc := range []struct {
		name      string
		gpus      int
		migration string
		budget    sim.Budget
	}{
		{"cachefill_k1", 1, "first-touch", sim.Budget{}},
		{"cachefill_k4_access_counter_budget", 4, "access-counter", budget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs := leasedCell(t, tc.gpus, tc.migration, tc.budget)
			if err := tier.Fill(context.Background(), cs, row); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			got := append([]byte(nil), body...)
			mu.Unlock()
			path := filepath.Join("testdata", tc.name+".json")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update-golden to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("cachefill body drifted from golden:\n got %s\nwant %s", got, want)
			}
		})
	}
}
