package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// smokeMemMiB shrinks every workload (1/6 of the paper scale) so one
// operation of each costs milliseconds; the goldens do not apply there.
const smokeMemMiB = 16

// Every workload, untraced and traced, for one operation per issuing
// goroutine: each metric BENCHMARK.json names must be emitted with its
// unit, end-to-end metrics must be non-zero, and nothing may fail.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bm, err := loadBenchmark(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range bm.workloadNames() {
		for _, traced := range []bool{false, true} {
			e := &env{workload: name, seed: 2, setups: 1, memMiB: smokeMemMiB, root: root, workDir: t.TempDir()}
			want := bm.EndToEnd
			if traced {
				e.traceDir = t.TempDir()
				want = bm.PerLayer
			}
			res, err := runWorkload(e, bm)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", name, traced, res.Failed, res.Attempted, res.Failures)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: emitted %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", name, traced, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", name, traced, m.Name, v.Unit, m.Unit)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, v.Value)
				}
			}
			if traced && res.Metrics["fail_frac"].Value != 0 {
				t.Errorf("%s: fail_frac = %v", name, res.Metrics["fail_frac"].Value)
			}
		}
	}
}

// The smoke test runs below paper scale, where goldens do not apply.
func TestCheckGoldenAppliesAtSeedOneFullScale(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "golden.txt"), []byte("table\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := &env{workload: "w", seed: 1, memMiB: fullScaleMiB, root: root}
	if err := checkGolden(e, "golden.txt", "table\n"); err != nil {
		t.Errorf("matching output: %v", err)
	}
	var mm *mismatchError
	if err := checkGolden(e, "golden.txt", "other\n"); !errors.As(err, &mm) {
		t.Errorf("differing output: got %v, want a mismatch", err)
	}
	e.seed = 2
	if err := checkGolden(e, "golden.txt", "other\n"); err != nil {
		t.Errorf("seed 2 is not pinned: %v", err)
	}
}
