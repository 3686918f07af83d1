// Command bench is the repository benchmark: it measures the cells people
// wait on end to end — the Fig. 1 suite, an oversubscribed K=4 sgemm
// cell, a uvmserved hit/miss mix and a small distributed sweep — checks
// every operation's output, and splits host time by layer in a traced
// run. BENCHMARK.json at the repository root names the workloads and
// metrics; bench/README.md explains them.
//
// Usage (from the repository root):
//
//	go run ./bench                                 # all workloads, seed 1
//	go run ./bench -workload sgemm-k4 -seed 7
//	go run ./bench -trace 1                        # per-layer metrics, artifacts in .bench_build/trace
//	go run ./bench -trace /tmp/tr                  # ... artifacts in /tmp/tr
//	go run ./bench -repeat 2 -runs 5               # do two sets of runs agree within the bounds?
//	bash bench/run.sh -workload dist-sweep         # build inside the checkout, then run
//
// Each workload runs in its own child process (this binary re-executed
// with -child), so peak RSS and GC state are per workload. The last line
// on standard output is one JSON object: correct, attempted, failed and
// metrics. The exit status is 0 only when every output checked out.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadF = flag.String("workload", "all", "workload to run (see BENCHMARK.json), or all")
		seed      = flag.Uint64("seed", 1, "simulation seed of every workload and request-stream seed of serve-mix")
		// BENCHMARK.json's command is invoked with --workload, --seed,
		// --seconds and --trace, so the flag must exist even though its
		// value is run_seconds.
		seconds = flag.Float64("seconds", 0, "measured seconds per workload run (0: run_seconds from BENCHMARK.json)")
		traceF  = flag.String("trace", "0", "0 runs untraced (end-to-end metrics); 1 or a directory runs traced (per-layer metrics), writing spans, CPU profile and module split to the directory (1: .bench_build/trace)")
		repeat  = flag.Int("repeat", 0, "agreement mode: run this many sets of -runs runs per workload and compare the sets' medians against the bounds")
		runs    = flag.Int("runs", 5, "runs per set in agreement mode, with seeds 1..runs")
		child   = flag.Bool("child", false, "run one workload in this process and print its full result (used by the parent process)")
	)
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		return fatal(err)
	}
	bm, err := loadBenchmark(root)
	if err != nil {
		return fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(bm.RunSeconds)
	}
	names := bm.workloadNames()
	if *workloadF != "all" {
		if !slices.Contains(names, *workloadF) {
			return fatal(fmt.Errorf("unknown workload %q (have %s)", *workloadF, strings.Join(names, ", ")))
		}
		names = []string{*workloadF}
	}
	traceDir := ""
	switch *traceF {
	case "0", "":
	case "1":
		traceDir = filepath.Join(root, ".bench_build", "trace")
	default:
		if traceDir, err = filepath.Abs(*traceF); err != nil {
			return fatal(err)
		}
	}

	switch {
	case *child:
		if len(names) != 1 {
			return fatal(fmt.Errorf("-child needs one -workload"))
		}
		return childMain(&env{workload: names[0], seed: *seed, seconds: *seconds, setups: 3, setupSeconds: 1,
			memMiB: fullScaleMiB, root: root, traceDir: traceDir}, bm)
	case *repeat > 0:
		return agreement(names, bm, *seconds, *repeat, *runs)
	}
	return parentMain(names, *seed, *seconds, traceDir, bm)
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// childMain runs one workload and prints its full result as one JSON
// line; failed checks are named on standard error.
func childMain(e *env, bm *benchmarkFile) int {
	scratch := filepath.Join(e.root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return fatal(err)
	}
	dir, err := os.MkdirTemp(scratch, "work-")
	if err != nil {
		return fatal(err)
	}
	defer os.RemoveAll(dir)
	e.workDir = dir
	res, err := runWorkload(e, bm)
	if err != nil {
		return fatal(fmt.Errorf("%s seed %d: %w", e.workload, e.seed, err))
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		return fatal(err)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(os.Stderr, "bench: %s seed %d: %s\n", e.workload, e.seed, f)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// spawn runs one workload in a child process and returns its result.
// The child's standard error passes through.
func spawn(name string, seed uint64, seconds float64, traceDir string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if traceDir != "" {
		traceArg = traceDir
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds*float64(time.Second))+150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name,
		"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", traceArg)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, fmt.Errorf("%s: unreadable result: %w", name, err)
	}
	if runErr != nil && res.Correct {
		return nil, fmt.Errorf("%s: %w", name, runErr)
	}
	return &res, nil
}

// parentMain runs each workload in its own child, prints every metric
// with its unit and sample count, and ends with the result line.
func parentMain(names []string, seed uint64, seconds float64, traceDir string, bm *benchmarkFile) int {
	var results []*result
	for _, name := range names {
		res, err := spawn(name, seed, seconds, traceDir)
		if err != nil {
			return fatal(err)
		}
		results = append(results, res)
		printResult(os.Stdout, res, bm)
	}
	if traceDir != "" {
		fmt.Printf("# traced artifacts in %s\n", traceDir)
	}
	line, ok := summary(results)
	fmt.Println(line)
	if !ok {
		return 1
	}
	return 0
}

// metricOrder lists a result's metrics in BENCHMARK.json order.
func metricOrder(res *result, bm *benchmarkFile) []string {
	var out []string
	for _, group := range [][]metricDef{bm.EndToEnd, bm.PerLayer} {
		for _, m := range group {
			if _, ok := res.Metrics[m.Name]; ok {
				out = append(out, m.Name)
			}
		}
	}
	return out
}

func printResult(w io.Writer, res *result, bm *benchmarkFile) {
	mode := "untraced: end-to-end metrics"
	if res.Traced {
		mode = "traced: per-layer metrics"
	}
	fmt.Fprintf(w, "== %s seed=%d (%s) attempted=%d failed=%d\n", res.Workload, res.Seed, mode, res.Attempted, res.Failed)
	for _, name := range metricOrder(res, bm) {
		m := res.Metrics[name]
		samples := ""
		if m.N > 0 {
			samples = fmt.Sprintf("n=%d", m.N)
		}
		value := fmt.Sprintf("%.6g", m.Value)
		if m.Value == math.Trunc(m.Value) && math.Abs(m.Value) < 1e15 {
			value = fmt.Sprintf("%.0f", m.Value) // counts keep every digit
		}
		fmt.Fprintf(w, "  %-28s %14s %-8s %-8s %s\n", name, value, m.Unit, samples, m.Tail)
	}
}

// summary renders the final result line. With several workloads the
// metric names are prefixed "<workload>.".
func summary(results []*result) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for name, m := range r.Metrics {
			if len(results) > 1 {
				name = r.Workload + "." + name
			}
			line.Metrics[name] = value{Value: m.Value, Unit: m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Sprintf(`{"correct": false, "error": %q}`, err.Error()), false
	}
	return string(b), line.Correct
}

// agreement runs sets of untraced runs (seeds 1..runs in every set) and
// checks that each later set's median of every end-to-end metric stays
// within the metric's bound of the first set's. The sets take turns: each
// seed and workload runs once per set before the next, in reversed set
// order on every other seed, so the host's speed drifting over minutes
// slows all sets alike instead of becoming the difference between them.
func agreement(names []string, bm *benchmarkFile, seconds float64, sets, runs int) int {
	// values[set][workload][metric] holds one value per run.
	values := make([]map[string]map[string][]float64, sets)
	for s := range values {
		values[s] = map[string]map[string][]float64{}
		for _, name := range names {
			values[s][name] = map[string][]float64{}
		}
	}
	for r := 1; r <= runs; r++ {
		for _, name := range names {
			for i := range sets {
				s := i
				if r%2 == 0 {
					s = sets - 1 - i
				}
				res, err := spawn(name, uint64(r), seconds, "")
				if err != nil {
					return fatal(err)
				}
				if !res.Correct {
					return fatal(fmt.Errorf("set %d %s seed %d: %d of %d operations failed", s+1, name, r, res.Failed, res.Attempted))
				}
				for _, m := range bm.EndToEnd {
					values[s][name][m.Name] = append(values[s][name][m.Name], res.Metrics[m.Name].Value)
				}
				fmt.Fprintf(os.Stderr, "# set %d %s seed %d done\n", s+1, name, r)
			}
		}
	}
	ok := true
	fmt.Printf("%-11s %-16s %6s", "workload", "metric", "bound")
	for s := range values {
		fmt.Printf(" %12s %7s", fmt.Sprintf("median%d", s+1), fmt.Sprintf("iqr%d", s+1))
	}
	fmt.Printf(" %8s  verdict\n", "diff")
	for _, name := range names {
		for _, m := range bm.EndToEnd {
			base := median(values[0][name][m.Name])
			fmt.Printf("%-11s %-16s %5.0f%%", name, m.Name, 100*m.Bound)
			worst := 0.0
			for s := range values {
				xs := values[s][name][m.Name]
				med := median(xs)
				fmt.Printf(" %12.6g %6.1f%%", med, 100*spread(xs))
				if base != 0 {
					worst = math.Max(worst, math.Abs(med-base)/math.Abs(base))
				}
			}
			verdict := "ok"
			if worst > m.Bound {
				verdict, ok = "DIFFERS", false
			}
			fmt.Printf(" %7.1f%%  %s\n", 100*worst, verdict)
		}
	}
	if !ok {
		fmt.Println("# some set medians differ by more than their bound")
		return 1
	}
	return 0
}
