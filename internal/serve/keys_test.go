package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRequestKeysPinned pins the cache identity of representative
// requests: the content hash, and for single cells the label. These are
// the keys every cache node and earlier build agrees on, so a rewrite of
// request resolution must leave each byte in place. Single-cell keys are
// read back through a write-through fill and a cache hit, so nothing
// simulates; sweep keys come from the async-job submit answer.
func TestRequestKeysPinned(t *testing.T) {
	_, ts := testServer(t, Config{})
	sims := []string{
		`{}`,
		`{"workload":"regular","footprint":0.75,"prefetch":"none","batch":128}`,
		`{"workload":"random","gpu_mem_mib":16,"seed":7,"footprint":1.25,"prefetch":"adaptive","replay":"once","evict":"access-aware+thrash","batch":64,"vablock_kib":512}`,
		`{"workload":"random","gpu_mem_mib":16,"gpus":1,"migration":"access-counter"}`,
		`{"workload":"random","gpu_mem_mib":16,"gpus":2}`,
		`{"workload":"random","gpu_mem_mib":16,"gpus":4,"migration":"access-counter"}`,
		`{"workload":"hotcold","gpu_mem_mib":16,"footprint":0.3,"budget":{"sim_budget_ms":250,"max_events":5000000,"livelock_events":100000}}`,
	}
	sweeps := []string{
		`{"workload":"regular","gpu_mem_mib":16,"footprints":[0.25]}`,
		`{"workload":"regular","gpu_mem_mib":16,"footprints":[0.25],"gpus":[1,2],"migration":["first-touch","access-counter"]}`,
	}
	row := make([]string, 12)
	for i := range row {
		row[i] = "0"
	}
	var out strings.Builder
	for _, raw := range sims {
		var req SimRequest
		if err := json.Unmarshal([]byte(raw), &req); err != nil {
			t.Fatal(err)
		}
		status, _, body := postJSON(t, ts.URL+"/v1/cachefill", CacheFillRequest{Sim: req, Row: row})
		if status != http.StatusOK {
			t.Fatalf("fill %s = %d: %s", raw, status, body)
		}
		status, _, body = postJSON(t, ts.URL+"/v1/sim", req)
		if status != http.StatusOK {
			t.Fatalf("sim %s = %d: %s", raw, status, body)
		}
		var resp SimResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "sim %s\n  hash=%s label=%s\n", raw, resp.Hash, resp.Label)
	}
	for _, raw := range sweeps {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var info JobInfo
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %s = %d (%v)", raw, resp.StatusCode, err)
		}
		fmt.Fprintf(&out, "sweep %s\n  hash=%s\n", raw, info.Hash)
	}

	path := filepath.Join("testdata", "request_keys.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal([]byte(out.String()), want) {
		t.Errorf("request keys drifted from golden.\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
}
