package sweep

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"

	"uvmsim/internal/cell"
	"uvmsim/internal/govern"
	"uvmsim/internal/journal"
	"uvmsim/internal/obs"
	"uvmsim/internal/sim"
)

// killSpec is a 12-cell sweep large enough that killing it after a few
// cells leaves real work for the resumed run at every worker count.
func killSpec(jobs int) *Spec {
	s := smallSpec()
	s.Footprints = []float64{0.25, 0.5, 0.75, 1.25}
	s.Jobs = jobs
	s.Obs = obs.NewCollector()
	s.Lifecycle = true
	return s
}

// completedOnly keeps the cells whose terminal status is completed.
func completedOnly(c *obs.Collector) *obs.Collector {
	return c.Filter(func(cell *obs.Cell) bool {
		return cell.Status() == string(govern.StateCompleted)
	})
}

// exports renders the three artifacts a governed sweep emits: the result
// table as CSV, the Chrome trace, and the metrics CSV.
func exports(t *testing.T, res *Result, c *obs.Collector) (table, trace, metrics []byte) {
	t.Helper()
	var tb, tr, me bytes.Buffer
	if err := res.Table.WriteCSV(&tb); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteChromeTrace(&tr); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteMetricsCSV(&me); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), tr.Bytes(), me.Bytes()
}

// Kill-and-resume must be indistinguishable from an uninterrupted sweep:
// after cancelling mid-run and resuming from the journal, the merged
// table, Chrome trace, and metrics CSV are byte-identical to a clean
// run's — at every worker count.
func TestKillResumeByteIdenticalAcrossJobs(t *testing.T) {
	clean := killSpec(1)
	cleanRes, err := clean.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantTable, wantTrace, wantMetrics := exports(t, cleanRes, completedOnly(clean.Obs))

	for _, jobs := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			jpath := filepath.Join(t.TempDir(), "sweep.jsonl")

			// Kill: cancel the context once K cells have finished. With
			// jobs > 1 the in-flight cells observe the flag at whatever
			// event they happen to be on — exactly a SIGINT's timing.
			const k = 3
			ctx, cancel := context.WithCancel(context.Background())
			var done atomic.Int64
			old := runConfig
			runConfig = func(s *Spec, c cell.Spec) ([]interface{}, error) {
				rows, err := old(s, c)
				if done.Add(1) == k {
					cancel()
				}
				return rows, err
			}
			killed := killSpec(jobs)
			killed.Journal = jpath
			_, killErr := killed.RunContext(ctx)
			runConfig = old
			cancel()
			// The race can resolve either way: the sweep may finish before
			// the flag lands. Both outcomes must resume to identical bytes.
			if killErr != nil && !errors.Is(killErr, context.Canceled) {
				t.Fatalf("killed run failed with a non-cancellation error: %v", killErr)
			}

			resumed := killSpec(jobs)
			resumed.Journal = jpath
			resumed.Resume = true
			res, err := resumed.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if killErr != nil && res.Reused == 0 {
				t.Fatal("killed run journaled completed cells but resume reused none")
			}

			// Merge: the resumed run's cells plus the killed run's
			// completed captures (reused cells never re-simulate, so their
			// capture lives only in the killed run's collector). Exports
			// sort by label, so insertion order is irrelevant.
			merged := completedOnly(resumed.Obs)
			merged.Adopt(completedOnly(killed.Obs).Cells()...)

			gotTable, gotTrace, gotMetrics := exports(t, res, merged)
			if !bytes.Equal(wantTable, gotTable) {
				t.Errorf("merged table differs from clean run:\n--- clean ---\n%s--- merged ---\n%s", wantTable, gotTable)
			}
			if !bytes.Equal(wantTrace, gotTrace) {
				t.Errorf("merged Chrome trace differs from clean run (%d vs %d bytes)", len(wantTrace), len(gotTrace))
			}
			if !bytes.Equal(wantMetrics, gotMetrics) {
				t.Errorf("merged metrics CSV differs from clean run:\n--- clean ---\n%s--- merged ---\n%s", wantMetrics, gotMetrics)
			}
		})
	}
}

// Cancelling a sweep at randomized (but seeded) points must always leave
// a parseable journal with verified digests and parseable partial
// exports — and never trip an invariant (a violation would panic the
// cell and surface as a non-cancellation error).
func TestRandomizedCancellationSafety(t *testing.T) {
	r := rand.New(rand.NewSource(0xC0FFEE))
	jobsChoices := []int{1, 2, 4, 8}
	for trial := 0; trial < 5; trial++ {
		k := 1 + r.Intn(12)
		jobs := jobsChoices[r.Intn(len(jobsChoices))]
		t.Run(fmt.Sprintf("trial=%d_cancel_at=%d_jobs=%d", trial, k, jobs), func(t *testing.T) {
			jpath := filepath.Join(t.TempDir(), "sweep.jsonl")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var calls atomic.Int64
			old := runConfig
			runConfig = func(s *Spec, c cell.Spec) ([]interface{}, error) {
				if calls.Add(1) == int64(k) {
					cancel()
				}
				return old(s, c)
			}
			defer func() { runConfig = old }()

			s := killSpec(jobs)
			s.Journal = jpath
			res, err := s.RunContext(ctx)
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled sweep failed with a non-cancellation error: %v", err)
			}
			if res == nil {
				t.Fatal("no result returned")
			}

			// The journal must load cleanly with every record terminal and
			// every completed row's digest intact.
			recs, lerr := journal.Load(jpath)
			if lerr != nil {
				t.Fatalf("journal unparseable after cancellation: %v", lerr)
			}
			for _, rec := range recs {
				st := govern.State(rec.Status)
				if st != govern.StateCompleted && st != govern.StateCancelled {
					t.Fatalf("non-terminal journal record: %+v", rec)
				}
				if st == govern.StateCompleted && rec.Digest != journal.RowDigest(rec.Row) {
					t.Fatalf("corrupt digest in journal record: %+v", rec)
				}
			}

			// Partial exports must still parse: the trace as JSON, the
			// metrics as CSV.
			done := completedOnly(s.Obs)
			var tr bytes.Buffer
			if err := done.WriteChromeTrace(&tr); err != nil {
				t.Fatal(err)
			}
			var parsed struct {
				TraceEvents []map[string]interface{} `json:"traceEvents"`
			}
			if err := json.Unmarshal(tr.Bytes(), &parsed); err != nil {
				t.Fatalf("partial Chrome trace unparseable: %v", err)
			}
			var me bytes.Buffer
			if err := done.WriteMetricsCSV(&me); err != nil {
				t.Fatal(err)
			}
			if _, err := csv.NewReader(&me).ReadAll(); err != nil {
				t.Fatalf("partial metrics CSV unparseable: %v", err)
			}
		})
	}
}

// A pathologically oversubscribed configuration must be stopped by the
// simulated-time budget while healthy cells in the same sweep complete;
// the sweep finishes, records every verdict, and resume trusts them.
func TestBudgetStopsPathologicalOversubscription(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "sweep.jsonl")
	s := smallSpec()
	// The 50% cells finish under 5.3 ms of simulated time; the thrashing
	// 125% cells need 6.7 ms or more. 6 ms cuts exactly between them.
	s.Budget = sim.Budget{SimDeadline: sim.Time(6 * sim.Millisecond)}
	s.Journal = jpath
	res, err := s.RunContext(context.Background())
	if err != nil {
		t.Fatalf("budget trip aborted the sweep: %v", err)
	}
	counts := res.Counts()
	if counts[govern.StateCompleted] != 3 || counts[govern.StateDeadline] != 3 {
		t.Fatalf("counts = %v, want 3 completed / 3 deadline", counts)
	}
	if len(res.Table.Rows) != 3 {
		t.Fatalf("table has %d rows, want 3 (deadline cells carry no row)", len(res.Table.Rows))
	}

	// Resume must not re-run either the completed or the budget-stopped
	// cells: both verdicts are deterministic.
	var reran atomic.Int64
	old := runConfig
	runConfig = func(s *Spec, c cell.Spec) ([]interface{}, error) {
		reran.Add(1)
		return old(s, c)
	}
	defer func() { runConfig = old }()
	s2 := smallSpec()
	s2.Budget = sim.Budget{SimDeadline: sim.Time(6 * sim.Millisecond)}
	s2.Journal = jpath
	s2.Resume = true
	res2, err := s2.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if reran.Load() != 0 {
		t.Fatalf("resume re-ran %d cells, want 0", reran.Load())
	}
	if c := res2.Counts(); c[govern.StateCompleted] != 3 || c[govern.StateDeadline] != 3 {
		t.Fatalf("resume counts = %v, want 3 completed / 3 deadline", c)
	}
}

// The livelock detector must never fire on a healthy configuration: real
// workloads schedule bursts of same-timestamp events, and the window has
// to sit far above any legitimate burst.
func TestLivelockWindowNoFalsePositive(t *testing.T) {
	s := smallSpec()
	s.Budget = sim.Budget{LivelockWindow: 50_000}
	res, err := s.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Counts(); c[govern.StateCompleted] != 6 {
		t.Fatalf("counts = %v, want 6 completed", c)
	}
}
