package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkFile is BENCHMARK.json at the repository root: the workloads,
// the metrics with their units, and the bound each end-to-end metric may
// worsen by. The benchmark reads names, units and bounds from it, so
// they are written down once.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// metricDef is one metric of BENCHMARK.json; per-layer metrics have no
// bound.
type metricDef struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// findRoot walks up from the working directory to the repository root,
// the directory holding both go.mod and BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isFile(filepath.Join(dir, "go.mod")) && isFile(filepath.Join(dir, "BENCHMARK.json")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no directory above the working directory holds go.mod and BENCHMARK.json")
		}
		dir = parent
	}
}

func isFile(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Mode().IsRegular()
}

func loadBenchmark(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bm benchmarkFile
	if err := json.Unmarshal(raw, &bm); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bm, nil
}

// workloadNames returns the workload names in BENCHMARK.json order.
func (bm *benchmarkFile) workloadNames() []string {
	names := make([]string, len(bm.Workloads))
	for i, w := range bm.Workloads {
		names[i] = w.Name
	}
	return names
}
