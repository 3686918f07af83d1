package dist

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"uvmsim/internal/sim"
	"uvmsim/internal/sweep"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// wireTraceRoot fixes the sweep's root trace so lease grants are
// byte-reproducible.
const wireTraceRoot = "0123456789abcdef"

// wireBudget is a budget every field of which the wire form carries.
var wireBudget = sim.Budget{
	SimDeadline:    sim.Time(250 * time.Millisecond),
	MaxEvents:      5_000_000,
	LivelockWindow: 100_000,
}

// wireSpec is a one-cell sweep at K GPUs under one migration policy,
// with or without a budget.
func wireSpec(gpus int, migration string, budget bool) *sweep.Spec {
	s := &sweep.Spec{
		Workload:       "random",
		GPUMemoryBytes: 16 << 20,
		Seed:           7,
		Footprints:     []float64{1.25},
		Prefetch:       []string{"adaptive"},
		Replay:         []string{"once"},
		Evict:          []string{"access-aware+thrash"},
		Batch:          []int{128},
		VABlock:        []int64{512 << 10},
		GPUs:           []int{gpus},
		Migration:      []string{migration},
		Jobs:           1,
	}
	if budget {
		s.Budget = wireBudget
	}
	return s
}

// checkGolden compares got with testdata/name, rewriting it under
// -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Errorf("%s drifted from golden:\n got %s\nwant %s", name, got, want)
	}
}

// The lease grant is the coordinator↔worker wire contract: a worker of
// another build must decode the same cell from the same bytes. K=1
// grants carry no gpus/migration keys, and budgets ride as flat
// omitempty fields.
func TestLeaseGrantWireGolden(t *testing.T) {
	for _, tc := range []struct {
		name      string
		gpus      int
		migration string
	}{
		{"k1", 1, "first-touch"},
		{"k4_first_touch", 4, "first-touch"},
		{"k4_access_counter", 4, "access-counter"},
	} {
		for _, budget := range []bool{false, true} {
			name := "lease_" + tc.name
			if budget {
				name += "_budget"
			}
			t.Run(name, func(t *testing.T) {
				co, err := NewCoordinator(wireSpec(tc.gpus, tc.migration, budget), CoordinatorConfig{TraceID: wireTraceRoot})
				if err != nil {
					t.Fatal(err)
				}
				defer co.Close()
				rec := httptest.NewRecorder()
				co.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/lease", strings.NewReader(`{"worker":"w"}`)))
				if rec.Code != http.StatusOK {
					t.Fatalf("lease status %d: %s", rec.Code, rec.Body)
				}
				checkGolden(t, name+".json", rec.Body.Bytes())
			})
		}
	}
}
