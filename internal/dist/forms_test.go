package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"uvmsim/internal/cell"
	"uvmsim/internal/confighash"
	"uvmsim/internal/serve"
	"uvmsim/internal/sim"
	"uvmsim/internal/sweep"
)

// referenceLabel is the label spelling every journal, lease and cache
// key has carried since the multi-GPU axes landed, written out
// independently of cell.Spec.Label.
func referenceLabel(c cell.Spec) string {
	l := fmt.Sprintf("workload=%s footprint=%g prefetch=%s replay=%s evict=%s batch=%d vablock=%dKiB seed=%d",
		c.Workload, c.Footprint, c.Prefetch, c.Replay, c.Evict, c.Batch, c.VABlock/1024, c.Seed)
	if c.GPUs > 1 {
		l += fmt.Sprintf(" gpus=%d migration=%s", c.GPUs, c.Migration)
	}
	return l
}

// postJSON issues one JSON exchange and decodes a 200 answer into out.
func postJSON(t *testing.T, url string, in, out interface{}) {
	t.Helper()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	raw.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s = %d: %s", url, resp.StatusCode, raw.Bytes())
	}
	if err := json.Unmarshal(raw.Bytes(), out); err != nil {
		t.Fatal(err)
	}
}

// Every form a cell takes must name it identically. For each cell of a
// broad cross product (every replay, eviction and migration policy,
// fractional footprints, K=1/2/4) four labels and keys agree: the cell
// the sweep enumerates, the cell a worker decodes from the lease JSON,
// the cell uvmserved resolves from the equivalent single-cell request,
// and the reference spelling. A partially specified request resolves,
// with the defaults filled in, to the singleton sweep's one cell.
func TestCellFormsAgree(t *testing.T) {
	node := serve.New(serve.Config{})
	nts := httptest.NewServer(node.Handler())
	defer nts.Close()
	defer node.Close()

	broad := &sweep.Spec{
		Workload: "random", GPUMemoryBytes: 16 << 20, Seed: 3,
		Footprints: []float64{0.3, 1.25},
		Prefetch:   []string{"adaptive"},
		Replay:     []string{"block", "batch", "batchflush", "once"},
		Evict:      []string{"lru", "fifo", "random", "access-aware", "lru+thrash", "access-aware+thrash"},
		Batch:      []int{128},
		VABlock:    []int64{512 << 10, 2 << 20},
		GPUs:       []int{1, 2, 4},
		Migration:  []string{"first-touch", "access-counter"},
		Budget:     sim.Budget{SimDeadline: sim.Time(2 * time.Second), MaxEvents: 1 << 30, LivelockWindow: 1 << 20},
	}
	defaults := cell.Default()
	partial := serve.SimRequest{Workload: "regular", Footprint: 0.75, Prefetch: "none", Batch: 128}
	singleton := &sweep.Spec{
		Workload: "regular", GPUMemoryBytes: defaults.GPUMemoryBytes, Seed: 0,
		Footprints: []float64{0.75}, Prefetch: []string{"none"}, Replay: []string{defaults.Replay.String()},
		Evict: []string{defaults.Evict}, Batch: []int{128}, VABlock: []int64{defaults.VABlock},
	}

	for _, s := range []*sweep.Spec{smallSpec(), broad, singleton} {
		configs, err := s.Configs()
		if err != nil {
			t.Fatal(err)
		}
		if s == singleton && len(configs) != 1 {
			t.Fatalf("singleton sweep produced %d cells", len(configs))
		}
		co, err := NewCoordinator(s, CoordinatorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		cts := httptest.NewServer(co.Handler())
		for i, c := range configs {
			want := referenceLabel(c)
			wantKey := confighash.Sum(want)
			if c.Label() != want || c.Key() != wantKey {
				t.Fatalf("cell %d: Label/Key = %q/%s, reference %q/%s", i, c.Label(), c.Key(), want, wantKey)
			}

			var lr LeaseResponse
			postJSON(t, cts.URL+"/v1/lease", LeaseRequest{Worker: "w"}, &lr)
			if lr.Cell == nil || lr.Index != i {
				t.Fatalf("cell %d: lease = %+v", i, lr)
			}
			if *lr.Cell != c || lr.Cell.Label() != want || lr.Label != want || lr.Hash != wantKey {
				t.Fatalf("cell %d: lease round trip %+v (label %q, hash %s), want %+v %q %s",
					i, *lr.Cell, lr.Label, lr.Hash, c, want, wantKey)
			}

			req, ok := serve.SimRequestOf(c)
			if !ok {
				t.Fatalf("cell %d (%s) not expressible as a serve request", i, want)
			}
			if s == singleton {
				req = partial
			}
			var fill serve.CacheFillResponse
			postJSON(t, nts.URL+"/v1/cachefill", serve.CacheFillRequest{Sim: req, Row: make([]string, len(sweep.Headers()))}, &fill)
			var hit serve.SimResponse
			postJSON(t, nts.URL+"/v1/sim", req, &hit)
			if hit.Label != want || confighash.Sum(hit.Label) != wantKey || hit.Hash != fill.Hash {
				t.Fatalf("cell %d: serve resolved %q (hash %s, fill %s), want %q", i, hit.Label, hit.Hash, fill.Hash, want)
			}
		}
		cts.Close()
		co.Close()
	}
}
