package sweep

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"uvmsim/internal/cell"
	"uvmsim/internal/core"
	"uvmsim/internal/obs"
	"uvmsim/internal/parallel"
	"uvmsim/internal/stats"
	"uvmsim/internal/workloads"
)

// smallSpec is a 2 footprints × 3 prefetch policies sweep (6 cells) at a
// tiny scale, the shape the ISSUE's determinism criterion names.
func smallSpec() *Spec {
	return &Spec{
		Workload:       "regular",
		GPUMemoryBytes: 16 << 20,
		Seed:           1,
		Footprints:     []float64{0.5, 1.25},
		Prefetch:       []string{"none", "density", "adaptive"},
		Replay:         []string{"batchflush"},
		Evict:          []string{"lru"},
		Batch:          []int{256},
		VABlock:        []int64{2 << 20},
		Jobs:           1,
	}
}

// The sweep table must be byte-identical between -jobs 1 and any
// parallel worker count.
func TestSweepDeterministicAcrossJobs(t *testing.T) {
	s := smallSpec()
	tb, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var serial bytes.Buffer
	if err := tb.WriteCSV(&serial); err != nil {
		t.Fatal(err)
	}
	if got := len(tb.Rows); got != 6 {
		t.Fatalf("2x3 sweep produced %d rows, want 6", got)
	}
	for _, jobs := range []int{3, 6} {
		s := smallSpec()
		s.Jobs = jobs
		tb, err := s.Run()
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var par bytes.Buffer
		if err := tb.WriteCSV(&par); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serial.Bytes(), par.Bytes()) {
			t.Errorf("jobs=%d output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				jobs, serial.String(), par.String())
		}
	}
}

// A bad name anywhere in the cross product must fail validation before
// any cell has run — including names that the old CLI only rejected
// mid-sweep, after earlier configurations had already executed.
func TestSweepFailsFastOnBadNames(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"workload", func(s *Spec) { s.Workload = "nosuch" }},
		{"replay", func(s *Spec) { s.Replay = []string{"batchflush", "bogus"} }},
		{"prefetch", func(s *Spec) { s.Prefetch = []string{"density", "bogus"} }},
		{"evict", func(s *Spec) { s.Evict = []string{"lru", "bogus"} }},
		{"evict+thrash", func(s *Spec) { s.Evict = []string{"bogus+thrash"} }},
		{"footprint", func(s *Spec) { s.Footprints = []float64{0.5, -1} }},
		{"batch", func(s *Spec) { s.Batch = []int{0} }},
		{"vablock", func(s *Spec) { s.VABlock = []int64{-4096} }},
		{"empty", func(s *Spec) { s.Prefetch = nil }},
	}
	for _, tc := range cases {
		ran := false
		old := runConfig
		runConfig = func(s *Spec, c cell.Spec) ([]interface{}, error) {
			ran = true
			return old(s, c)
		}
		s := smallSpec()
		tc.mutate(s)
		_, err := s.Run()
		runConfig = old
		if err == nil {
			t.Errorf("%s: bad spec passed validation", tc.name)
		}
		if ran {
			t.Errorf("%s: cells ran before validation failed", tc.name)
		}
	}
}

// A cell whose run panics must fail the whole sweep with the offending
// configuration and seed in the error, and must not deadlock the pool.
func TestSweepWorkerPanicFailsWithReplayRecipe(t *testing.T) {
	old := runConfig
	defer func() { runConfig = old }()
	runConfig = func(s *Spec, c cell.Spec) ([]interface{}, error) {
		if c.Footprint == 1.25 && c.Prefetch == "density" {
			panic("simulated invariant violation")
		}
		return []interface{}{c.Footprint}, nil
	}
	for _, jobs := range []int{1, 4} {
		s := smallSpec()
		s.Jobs = jobs
		done := make(chan error, 1)
		go func() {
			_, err := s.Run()
			done <- err
		}()
		var err error
		select {
		case err = <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("jobs=%d: sweep deadlocked after worker panic", jobs)
		}
		if err == nil {
			t.Fatalf("jobs=%d: panicking cell did not fail the sweep", jobs)
		}
		var pe *parallel.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("jobs=%d: error does not wrap *parallel.PanicError: %v", jobs, err)
		}
		for _, want := range []string{"footprint=1.25", "prefetch=density", "seed=1", "-jobs 1", "simulated invariant violation"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("jobs=%d: error misses %q:\n%v", jobs, want, err)
			}
		}
	}
}

// Cross-product expansion must keep the serial CLI's nesting order.
func TestSweepConfigOrder(t *testing.T) {
	s := smallSpec()
	configs, err := s.Configs()
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 6 {
		t.Fatalf("got %d configs, want 6", len(configs))
	}
	wantFoot := []float64{0.5, 0.5, 0.5, 1.25, 1.25, 1.25}
	wantPf := []string{"none", "density", "adaptive", "none", "density", "adaptive"}
	for i, c := range configs {
		if c.Footprint != wantFoot[i] || c.Prefetch != wantPf[i] {
			t.Errorf("config[%d] = {%g %s}, want {%g %s}",
				i, c.Footprint, c.Prefetch, wantFoot[i], wantPf[i])
		}
	}
}

// Observability exports must also be byte-identical at every worker
// count: cells register with the collector in completion order, but
// exports sort by label.
func TestSweepObsDeterministicAcrossJobs(t *testing.T) {
	capture := func(jobs int) (trace, spans, metrics []byte) {
		s := smallSpec()
		s.Jobs = jobs
		s.Obs = obs.NewCollector()
		s.Lifecycle = true
		if _, err := s.Run(); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var tr, sp, me bytes.Buffer
		if err := s.Obs.WriteChromeTrace(&tr); err != nil {
			t.Fatal(err)
		}
		if err := s.Obs.WriteSpanCSV(&sp); err != nil {
			t.Fatal(err)
		}
		if err := s.Obs.WriteMetricsCSV(&me); err != nil {
			t.Fatal(err)
		}
		return tr.Bytes(), sp.Bytes(), me.Bytes()
	}
	trace1, spans1, metrics1 := capture(1)
	if len(trace1) == 0 || len(spans1) == 0 || len(metrics1) == 0 {
		t.Fatal("empty exports from serial sweep")
	}
	for _, jobs := range []int{4, 8} {
		traceN, spansN, metricsN := capture(jobs)
		if !bytes.Equal(trace1, traceN) {
			t.Errorf("jobs=%d chrome trace differs from serial", jobs)
		}
		if !bytes.Equal(spans1, spansN) {
			t.Errorf("jobs=%d span CSV differs from serial", jobs)
		}
		if !bytes.Equal(metrics1, metricsN) {
			t.Errorf("jobs=%d metrics CSV differs from serial", jobs)
		}
	}
}

// A cell assembled by hand the way the single-run CLIs do (default
// config plus a policy name, no access-counter switch) must simulate the
// same access-aware eviction the sweep does: choosing the policy is what
// turns the GPU's access counters on, wherever the config was built.
func TestHandBuiltAccessAwareCellMatchesSweep(t *testing.T) {
	for _, tc := range []struct {
		evict  string
		pinned []string // total_ms and faults
	}{
		{"access-aware", []string{"100.56", "30144"}},
		{"access-aware+thrash", nil},
	} {
		s := &Spec{
			Workload: "hotcold", GPUMemoryBytes: 96 << 20, Seed: 1,
			Footprints: []float64{1.3}, Prefetch: []string{"density"}, Replay: []string{"batchflush"},
			Evict: []string{tc.evict}, Batch: []int{256}, VABlock: []int64{2 << 20}, Jobs: 1,
		}
		tb, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		swept := tb.Rows[0][6:8]
		if tc.pinned != nil && (swept[0] != tc.pinned[0] || swept[1] != tc.pinned[1]) {
			t.Errorf("%s sweep row total_ms/faults = %v, want %v", tc.evict, swept, tc.pinned)
		}

		cfg := core.DefaultConfig(96 << 20)
		cfg.Seed = 1
		cfg.EvictPolicy = tc.evict
		sys, err := core.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := workloads.DefaultParams()
		p.Seed = 101
		footprint, mem := 1.3, float64(cfg.GPUMemoryBytes)
		k, err := workloads.HotCold(sys, int64(footprint*mem), p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.RunUVM(k)
		if err != nil {
			t.Fatal(err)
		}
		byHand := stats.RenderCells(float64(res.TotalTime.Micros())/1000, res.Faults)
		if byHand[0] != swept[0] || byHand[1] != swept[1] {
			t.Errorf("%s built by hand: total_ms/faults = %v, sweep renders %v", tc.evict, byHand, swept)
		}
	}
}
