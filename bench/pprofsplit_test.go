package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestSplitModulesCannedTraces(t *testing.T) {
	f, err := os.Open("testdata/pprof_traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("parsed %d samples, want 4", len(samples))
	}
	if samples[0].value != 40*time.Millisecond || samples[0].frames[1] != "uvmsim/internal/mem.(*AddressSpace).IsResident" {
		t.Errorf("first sample = %v %q, want 40ms with the inline marker dropped", samples[0].value, samples[0].frames[1])
	}
	shares := splitModules(samples)
	want := map[string]moduleShare{
		// A mapaccess leaf under mem is map self time; mem shows in cum.
		"map": {Self: 40, Cum: 40},
		"mem": {Self: 0, Cum: 40},
		// A GC-worker stack has no module frame.
		"gc": {Self: 20, Cum: 20},
		// The recursive walk is one sample: counted once in cum.
		"tree":   {Self: 30, Cum: 30},
		"driver": {Self: 0, Cum: 30},
		"sim":    {Self: 0, Cum: 70},
		// Allocation under SGEMM is charged to workloads.
		"workloads": {Self: 10, Cum: 10},
		"other":     {Self: 0, Cum: 40},
		"memmove":   {},
	}
	for m, w := range want {
		if got := shares[m]; math.Abs(got.Self-w.Self) > 1e-9 || math.Abs(got.Cum-w.Cum) > 1e-9 {
			t.Errorf("%s = %+v, want %+v", m, got, w)
		}
	}
	var sum float64
	for _, m := range hostModules {
		sum += shares[m].Self
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("self shares sum to %v, want 100", sum)
	}
	var table strings.Builder
	if err := writeModuleTable(&table, shares); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "total        100.00") {
		t.Errorf("module table lacks the 100%% total:\n%s", table.String())
	}
}

func TestCategoryCrossCuttingRules(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memmove", "runtime.growslice", "uvmsim/internal/workloads.SGEMM"}, "memmove"},
		{[]string{"encoding/json.(*encodeState).marshal", "encoding/json.Marshal", "uvmsim/internal/serve.marshalBody"}, "json"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Read", "net.(*conn).Read", "net/http.(*conn).serve"}, "net_http"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Fsync", "os.(*File).Sync", "uvmsim/internal/journal.(*Writer).Append"}, "dist"},
		{[]string{"uvmsim/internal/serve/client.(*Client).once"}, "serve"},
		{[]string{"runtime.schedule", "runtime.mcall"}, "gc"},
		{[]string{"uvmsim/internal/stats.RenderCells", "uvmsim/internal/sweep.(*Spec).RunContext"}, "other"},
		{[]string{"slices.SortFunc[go.shape.[]uvmsim/internal/driver.bin]", "uvmsim/internal/driver.(*Driver).preprocess"}, "driver"},
	}
	for _, c := range cases {
		if got := category(c.frames); got != c.want {
			t.Errorf("category(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestParsePprofDuration(t *testing.T) {
	for in, want := range map[string]time.Duration{
		"10ms": 10 * time.Millisecond, "1.20s": 1200 * time.Millisecond, "500us": 500 * time.Microsecond,
	} {
		if got, err := parsePprofDuration(in); err != nil || got != want {
			t.Errorf("parsePprofDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parsePprofDuration("ten"); err == nil {
		t.Error("parsePprofDuration accepted a malformed value")
	}
}
