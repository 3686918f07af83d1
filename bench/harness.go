package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// env is what one workload run needs to know.
type env struct {
	workload string
	seed     uint64
	// seconds is the measured time; traced runs split it evenly between
	// an untraced and a traced phase. Every issuing goroutine completes
	// at least one operation per phase, so 0 means exactly one.
	seconds float64
	// Setup runs at least setups times and until setupSeconds have
	// passed in total; setup_s is the median. A short setup thus repeats
	// often enough for its median to hold still.
	setups       int
	setupSeconds float64
	// memMiB is the simulated GPU framebuffer. Goldens hold only at the
	// paper scale (fullScaleMiB).
	memMiB   int64
	root     string // repository root (goldens, BENCHMARK.json)
	workDir  string // scratch space for journals
	traceDir string // "" runs untraced
}

// fullScaleMiB is the 1/128-scale Titan V every experiment defaults to.
const fullScaleMiB = 96

// golden reports whether the seed-1 goldens apply to this run.
func (e *env) golden() bool { return e.seed == 1 && e.memMiB == fullScaleMiB }

// workload is one named benchmark workload. setup may run several
// times; the state of the last call serves the measured phases.
type workload interface {
	setup(e *env) error
	run(e *env, p *phase)
	// layers reports the workload's per-layer metrics from the untraced
	// and traced phases.
	layers(e *env, untraced, traced *phase, set func(name string, v float64))
	close()
}

// verifier is implemented by workloads that check some outputs only
// after the measured phases, on a path that must not share their time.
type verifier interface {
	verify(e *env)
}

// mismatchError marks a setup output that disagrees with its golden: it
// counts as a failed operation instead of aborting the run.
type mismatchError struct{ msg string }

func (m *mismatchError) Error() string { return m.msg }

// phase is one measured stretch of operations.
type phase struct {
	deadline time.Time
	rec      *spans // nil when untraced

	mu        sync.Mutex
	attempted int
	failed    int
	cells     int
	failures  []string
	series    map[string][]float64

	elapsed    time.Duration
	allocBytes uint64
}

// more reports whether the op-th operation (0-based, per issuing
// goroutine) should start: always the first, then until the deadline.
func (p *phase) more(op int) bool {
	return op == 0 || time.Now().Before(p.deadline)
}

// ok counts a successful operation that delivered cells results.
func (p *phase) ok(cells int) {
	p.mu.Lock()
	p.attempted++
	p.cells += cells
	p.mu.Unlock()
}

// fail counts a failed operation.
func (p *phase) fail(op string, format string, args ...any) {
	p.mu.Lock()
	p.attempted++
	p.mu.Unlock()
	p.mismatch(op, format, args...)
}

// mismatch counts an already-counted operation whose output a later
// check rejected.
func (p *phase) mismatch(op string, format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failed++
	if len(p.failures) < 10 {
		p.failures = append(p.failures, fmt.Sprintf("op %s: %s", op, fmt.Sprintf(format, args...)))
	}
}

// add appends v to the named series.
func (p *phase) add(series string, v float64) {
	p.mu.Lock()
	p.series[series] = append(p.series[series], v)
	p.mu.Unlock()
}

// get returns a copy of the named series.
func (p *phase) get(series string) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]float64(nil), p.series[series]...)
}

// rssWindow is the length of the windows whose resident-set peaks
// peak_rss_mb takes the median of.
const rssWindow = time.Second

// runPhase measures w for seconds (at least one operation).
func runPhase(e *env, w workload, seconds float64, rec *spans) (*phase, error) {
	runtime.GC() // start from a settled heap, not setup's garbage
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	p := &phase{
		deadline: start.Add(time.Duration(seconds * float64(time.Second))),
		rec:      rec,
		series:   map[string][]float64{},
	}
	stop := make(chan struct{})
	var peaks []float64
	var rssErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		peaks, rssErr = windowPeaks(stop, rssWindow)
	}()
	w.run(e, p)
	close(stop)
	wg.Wait()
	p.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.series["rss_peak_bytes"] = peaks
	return p, rssErr
}

// windowPeaks records the resident-set high-water mark of each window
// until stop closes, resetting it between windows. The maximum over a
// whole run is dominated by when garbage collections happen to fall;
// the median over windows is the steady footprint under load. The last,
// partial window counts only when it is the only one.
func windowPeaks(stop <-chan struct{}, window time.Duration) ([]float64, error) {
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	t := time.NewTicker(window)
	defer t.Stop()
	var peaks []float64
	for {
		select {
		case <-stop:
			if len(peaks) > 0 {
				return peaks, nil
			}
			v, err := peakRSSBytes()
			return []float64{float64(v)}, err
		case <-t.C:
			v, err := peakRSSBytes()
			if err != nil {
				return nil, err
			}
			peaks = append(peaks, float64(v))
			if err := resetPeakRSS(); err != nil {
				return nil, err
			}
		}
	}
}

// metricValue is one reported number with the samples behind it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`    // samples (operations, set-ups, windows) behind the value
	Tail  string  `json:"tail,omitempty"` // highest percentile with ≥10 samples beyond it
}

// result is one workload run as the child process reports it.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload sets up, measures and checks one workload. Untraced runs
// report the end-to-end metrics; traced runs the per-layer ones.
func runWorkload(e *env, bm *benchmarkFile) (*result, error) {
	w, err := newWorkload(e.workload)
	if err != nil {
		return nil, err
	}
	defer w.close()
	var setupFailures []string
	var setups []float64
	for total := 0.0; len(setups) < max(1, e.setups) || total < e.setupSeconds; {
		start := time.Now()
		err := w.setup(e)
		var mm *mismatchError
		switch {
		case errors.As(err, &mm):
			if len(setups) == 0 { // every repetition reproduces it
				setupFailures = append(setupFailures, "setup: "+mm.msg)
			}
		case err != nil:
			return nil, fmt.Errorf("%s setup: %w", e.workload, err)
		}
		took := time.Since(start).Seconds()
		setups = append(setups, took)
		total += took
	}

	traced := e.traceDir != ""
	seconds := e.seconds
	if traced {
		seconds /= 2
	}
	untracedPhase, err := runPhase(e, w, seconds, nil)
	if err != nil {
		return nil, err
	}
	var tracedPhase *phase
	var shares map[string]moduleShare
	if traced {
		if tracedPhase, shares, err = runTraced(e, w, seconds); err != nil {
			return nil, err
		}
	}
	if v, ok := w.(verifier); ok {
		v.verify(e)
	}

	res := &result{Workload: e.workload, Seed: e.seed, Traced: traced, Metrics: map[string]metricValue{}}
	res.Failures = setupFailures
	res.Failed = len(setupFailures)
	res.Attempted = len(setupFailures)
	for _, p := range []*phase{untracedPhase, tracedPhase} {
		if p != nil {
			res.Attempted += p.attempted
			res.Failed += p.failed
			res.Failures = append(res.Failures, p.failures...)
		}
	}
	res.Correct = res.Failed == 0

	if !traced {
		opMs := untracedPhase.get("op_ms")
		rss := untracedPhase.get("rss_peak_bytes")
		vals := map[string]metricValue{
			"setup_s":         {Value: median(setups), N: len(setups)},
			"op_min_ms":       {Value: minimum(opMs), N: len(opMs), Tail: tailLabel(opMs)},
			"alloc_mb_per_op": {Value: float64(untracedPhase.allocBytes) / 1e6 / float64(max(1, untracedPhase.attempted)), N: untracedPhase.attempted},
			"peak_rss_mb":     {Value: median(rss) / 1e6, N: len(rss)},
		}
		for _, m := range bm.EndToEnd {
			v, ok := vals[m.Name]
			if !ok {
				return nil, fmt.Errorf("BENCHMARK.json names end-to-end metric %q, which the benchmark does not measure", m.Name)
			}
			v.Unit = m.Unit
			res.Metrics[m.Name] = v
		}
		return res, nil
	}

	units := map[string]string{}
	for _, m := range bm.PerLayer {
		units[m.Name] = m.Unit
		res.Metrics[m.Name] = metricValue{Unit: m.Unit}
	}
	var unknown []string
	set := func(name string, v float64) {
		unit, ok := units[name]
		if !ok {
			unknown = append(unknown, name)
			return
		}
		res.Metrics[name] = metricValue{Value: v, Unit: unit}
	}
	w.layers(e, untracedPhase, tracedPhase, set)
	// The untraced half's throughput and median latency: per-layer, because
	// a host that slows for a whole run moves them past any useful bound.
	opMs := untracedPhase.get("op_ms")
	set("cells_per_s", float64(untracedPhase.cells)/untracedPhase.elapsed.Seconds())
	set("op_p50_ms", median(opMs))
	if m, ok := res.Metrics["op_p50_ms"]; ok {
		m.N, m.Tail = len(opMs), tailLabel(opMs)
		res.Metrics["op_p50_ms"] = m
	}
	for m, s := range shares {
		set("host."+m+"_pct", s.Self)
	}
	if base := median(untracedPhase.get("op_ms")); base > 0 {
		set("trace.overhead_pct", 100*(median(tracedPhase.get("op_ms"))/base-1))
	}
	set("fail_frac", float64(res.Failed)/float64(max(1, res.Attempted)))
	if len(unknown) > 0 {
		return nil, fmt.Errorf("per-layer metrics %v are missing from BENCHMARK.json", unknown)
	}
	return res, nil
}

// runTraced measures the traced phase under the CPU profiler and writes
// its artifacts into the trace directory: <workload>.trace.json (spans),
// <workload>.cpu.pprof, and <workload>.modules.txt (per-module split).
func runTraced(e *env, w workload, seconds float64) (*phase, map[string]moduleShare, error) {
	if err := os.MkdirAll(e.traceDir, 0o755); err != nil {
		return nil, nil, err
	}
	base := filepath.Join(e.traceDir, e.workload)
	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return nil, nil, err
	}
	defer prof.Close()
	rec := newSpans()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, nil, err
	}
	p, err := runPhase(e, w, seconds, rec)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, err
	}
	if err := prof.Close(); err != nil {
		return nil, nil, err
	}
	if err := writeFile(base+".trace.json", rec.writeChrome); err != nil {
		return nil, nil, err
	}
	shares, err := profileSplit(base + ".cpu.pprof")
	if err != nil {
		return nil, nil, err
	}
	if err := writeFile(base+".modules.txt", func(w io.Writer) error { return writeModuleTable(w, shares) }); err != nil {
		return nil, nil, err
	}
	return p, shares, nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSBytes reads this process's resident-set high-water mark.
func peakRSSBytes() (uint64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// resetPeakRSS lowers the high-water mark to the current resident set
// (Linux clear_refs code 5).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// heapAllocBytes is the cumulative heap allocation of the process, read
// without stopping the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
