package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uvmsim/internal/cell"
	"uvmsim/internal/confighash"
	"uvmsim/internal/multigpu"
	"uvmsim/internal/obs"
)

// TestSingleGPULabelAndHashPinned pins the zero-value elision contract:
// a single-GPU cell must render exactly the pre-multi-GPU label, and so
// hash to exactly the pre-multi-GPU confighash. Journals and serve
// caches persist these keys; if this test fails, every record written
// before the multi-GPU axes existed is silently orphaned.
func TestSingleGPULabelAndHashPinned(t *testing.T) {
	spec := &Spec{
		Workload:       "random",
		GPUMemoryBytes: 32 << 20,
		Seed:           1,
		Footprints:     []float64{0.5},
		Prefetch:       []string{"density"},
		Replay:         []string{"batchflush"},
		Evict:          []string{"lru"},
		Batch:          []int{256},
		VABlock:        []int64{2 << 20},
	}
	cfgs, err := spec.Configs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 1 {
		t.Fatalf("expected 1 cell, got %d", len(cfgs))
	}
	const wantLabel = "workload=random footprint=0.5 prefetch=density replay=batchflush evict=lru batch=256 vablock=2048KiB seed=1"
	if got := cfgs[0].Label(); got != wantLabel {
		t.Errorf("K=1 label drifted:\n got %q\nwant %q", got, wantLabel)
	}
	// The hash below was computed before the GPUs/Migration axes existed.
	const wantHash = "2ac1730334c1245f"
	if got := confighash.Sum(cfgs[0].Label()); got != wantHash {
		t.Errorf("K=1 confighash drifted: got %s, want %s", got, wantHash)
	}

	// Explicitly asking for one GPU must be indistinguishable from not
	// asking at all — same single cell, same label.
	spec.GPUs = []int{1}
	spec.Migration = []string{"first-touch", "access-counter"}
	cfgs, err = spec.Configs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 1 {
		t.Fatalf("K=1 did not collapse the migration axis: %d cells", len(cfgs))
	}
	if got := cfgs[0].Label(); got != wantLabel {
		t.Errorf("explicit GPUs=[1] label drifted: got %q", got)
	}
}

// TestMultiGPULabelFormat pins the K>1 label suffix so journals keyed by
// multi-GPU labels stay matchable across versions.
func TestMultiGPULabelFormat(t *testing.T) {
	c := cell.Spec{Workload: "regular", GPUMemoryBytes: 32 << 20, Seed: 7,
		Footprint: 0.5, Prefetch: "none", Replay: 0, Evict: "lru",
		Batch: 256, VABlock: 2 << 20, GPUs: 4, Migration: multigpu.AccessCounter}
	got := c.Label()
	if !strings.HasSuffix(got, " gpus=4 migration=access-counter") {
		t.Errorf("K=4 label missing multi-GPU suffix: %q", got)
	}
}

// pinnedMultiGPUSpec is the K=4 golden configuration: four devices over
// a shared footprint with both placement policies crossed, spans and
// lifecycle on — the determinism gate for the residency manager, the
// interconnect fabric, and access-counter migration.
func pinnedMultiGPUSpec(jobs int) (*Spec, *obs.Collector) {
	col := obs.NewCollector()
	return &Spec{
		Workload:       "regular",
		GPUMemoryBytes: 16 << 20,
		Seed:           7,
		Footprints:     []float64{0.5, 1.2},
		Prefetch:       []string{"density"},
		Replay:         []string{"batchflush"},
		Evict:          []string{"lru"},
		Batch:          []int{256},
		VABlock:        []int64{2 << 20},
		GPUs:           []int{4},
		Migration:      []string{"first-touch", "access-counter"},
		Jobs:           jobs,
		Obs:            col,
		Lifecycle:      true,
	}, col
}

// renderPinnedMultiGPU runs the K=4 pinned sweep at the given
// parallelism and renders the guarded artifacts.
func renderPinnedMultiGPU(t *testing.T, jobs int) (table, trace []byte) {
	t.Helper()
	spec, col := pinnedMultiGPUSpec(jobs)
	tb, err := spec.Run()
	if err != nil {
		t.Fatalf("jobs=%d: %v", jobs, err)
	}
	var tbuf, cbuf bytes.Buffer
	if err := tb.WriteCSV(&tbuf); err != nil {
		t.Fatal(err)
	}
	if err := col.WriteChromeTrace(&cbuf); err != nil {
		t.Fatal(err)
	}
	return tbuf.Bytes(), cbuf.Bytes()
}

// TestPinnedMultiGPUSweepArtifacts pins the K=4 sweep table and Chrome
// trace byte-for-byte against committed goldens at -jobs 1, 4, and 8 —
// the multi-GPU analogue of TestPinnedSweepArtifacts. Peer migrations,
// fabric contention, and per-device trace lanes must all land
// identically at every worker count.
func TestPinnedMultiGPUSweepArtifacts(t *testing.T) {
	tablePath := filepath.Join("testdata", "pinned_multigpu_table.csv")
	tracePath := filepath.Join("testdata", "pinned_multigpu_trace.json")

	table1, trace1 := renderPinnedMultiGPU(t, 1)
	if *updateGolden {
		if err := os.WriteFile(tablePath, table1, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tracePath, trace1, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes) and %s (%d bytes)", tablePath, len(table1), tracePath, len(trace1))
	}
	wantTable, err := os.ReadFile(tablePath)
	if err != nil {
		t.Fatalf("missing golden (generate with -update-golden): %v", err)
	}
	wantTrace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("missing golden (generate with -update-golden): %v", err)
	}
	for _, jobs := range []int{1, 4, 8} {
		table, trace := table1, trace1
		if jobs != 1 {
			table, trace = renderPinnedMultiGPU(t, jobs)
		}
		if !bytes.Equal(table, wantTable) {
			t.Errorf("jobs=%d: K=4 sweep table drifted from golden:\n--- want ---\n%s\n--- got ---\n%s",
				jobs, wantTable, table)
		}
		if !bytes.Equal(trace, wantTrace) {
			t.Errorf("jobs=%d: K=4 Chrome trace drifted from golden (%d bytes want, %d bytes got)",
				jobs, len(wantTrace), len(trace))
		}
	}
}

// TestMultiGPUPolicySweepDiverges asserts the sweep-level divergence the
// paper's scaling study depends on: at K=4 on the oversubscribed regular
// workload, first-touch and access-counter cells must produce different
// rows (evictions release blocks across the partition, and the
// access-counter cell converts the resulting remote-access stalls into
// migrations; the undersubscribed cell stays policy-insensitive because
// a single contiguous first-touch pass never re-reads remote data).
func TestMultiGPUPolicySweepDiverges(t *testing.T) {
	spec, _ := pinnedMultiGPUSpec(1)
	spec.Obs = nil
	spec.Lifecycle = false
	tb, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 { // header + 2 footprints x 2 policies
		t.Fatalf("expected 5 CSV lines, got %d:\n%s", len(lines), buf.String())
	}
	// Rows 3/4 are footprint 1.2 first-touch vs access-counter.
	if lines[3] == lines[4] {
		t.Errorf("first-touch and access-counter rows identical at oversubscribed K=4:\n%s", lines[3])
	}
}
