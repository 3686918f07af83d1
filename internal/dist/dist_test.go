package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"uvmsim/internal/govern"
	"uvmsim/internal/sweep"
)

// smallSpec is the 2 footprints × 3 prefetch policies sweep (6 cells)
// the single-process tests use, at a tiny scale so cells finish in
// milliseconds.
func smallSpec() *sweep.Spec {
	return &sweep.Spec{
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

// A cell's lease wire form round-trips to the same cell and label the
// sweep enumerates.
func TestCellSpecLabelRoundTrip(t *testing.T) {
	s := smallSpec()
	configs, err := s.Configs()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range configs {
		b, err := json.Marshal(LeaseResponse{Cell: &c, Index: i, Label: c.Label(), Hash: c.Key()})
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		var lr LeaseResponse
		if err := json.Unmarshal(b, &lr); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if lr.Cell == nil || *lr.Cell != c {
			t.Fatalf("cell %d: wire round trip %+v, want %+v", i, lr.Cell, c)
		}
		if label, want := lr.Cell.Label(), c.Label(); label != want || lr.Label != want {
			t.Errorf("cell %d label skew:\n  wire   %q\n  direct %q", i, label, want)
		}
	}
}

// fakeClock is an injectable coordinator clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
}

func (co *Coordinator) counter(t *testing.T, name string) uint64 {
	t.Helper()
	for _, s := range co.Samples() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("metric %q not registered", name)
	return 0
}

func TestBackoff(t *testing.T) {
	base, cap := 100*time.Millisecond, time.Second
	for _, tc := range []struct {
		n    int
		want time.Duration
	}{
		{0, 100 * time.Millisecond}, // clamped to 1
		{1, 100 * time.Millisecond},
		{2, 200 * time.Millisecond},
		{3, 400 * time.Millisecond},
		{4, 800 * time.Millisecond},
		{5, time.Second}, // capped
		{50, time.Second},
	} {
		if got := Backoff(tc.n, base, cap); got != tc.want {
			t.Errorf("Backoff(%d) = %s, want %s", tc.n, got, tc.want)
		}
	}
}

// An unrenewed lease expires, the cell is requeued under backoff, and
// the next grant carries attempt 2. The dead lease's heartbeat answers
// false.
func TestLeaseExpiryRequeuesUnderBackoff(t *testing.T) {
	clk := newFakeClock()
	co, err := NewCoordinator(smallSpec(), CoordinatorConfig{
		LeaseTTL: time.Second, BackoffBase: 100 * time.Millisecond, Now: clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	lr := co.Acquire("w1")
	if lr.Cell == nil || lr.Attempt != 1 {
		t.Fatalf("first acquire = %+v, want a cell at attempt 1", lr)
	}
	if !co.Renew(lr.LeaseID) {
		t.Fatal("renew of a live lease answered false")
	}

	// The renewal pushed the deadline out; expiry counts from it.
	clk.Advance(time.Second + time.Millisecond)
	if co.Renew(lr.LeaseID) {
		t.Fatal("renew of an expired lease answered true")
	}
	if got := co.counter(t, MetricLeasesExpired); got != 1 {
		t.Fatalf("expired counter = %d, want 1", got)
	}

	// During backoff the cell is not leasable; other cells still are.
	// Lease everything else out, then ask again: only the backoff gate
	// remains, so the coordinator answers a wait hint.
	held := []LeaseResponse{}
	for {
		next := co.Acquire("w2")
		if next.Cell == nil {
			if next.WaitMs <= 0 {
				t.Fatalf("starved acquire = %+v, want a wait hint", next)
			}
			break
		}
		if next.Hash == lr.Hash {
			t.Fatalf("cell %s re-granted during backoff", lr.Hash)
		}
		held = append(held, next)
	}
	if len(held) != 5 {
		t.Fatalf("leased %d other cells, want 5", len(held))
	}

	// Past the backoff gate the cell comes back at attempt 2.
	clk.Advance(100 * time.Millisecond)
	retry := co.Acquire("w2")
	if retry.Cell == nil || retry.Hash != lr.Hash || retry.Attempt != 2 {
		t.Fatalf("post-backoff acquire = %+v, want cell %s attempt 2", retry, lr.Hash)
	}
	if got := co.counter(t, MetricRetries); got != 1 {
		t.Fatalf("retries counter = %d, want 1", got)
	}
}

// A cell that fails on every grant is quarantined once the retry budget
// is spent — not retried forever — and the sweep still settles.
func TestPoisonCellQuarantined(t *testing.T) {
	clk := newFakeClock()
	co, err := NewCoordinator(smallSpec(), CoordinatorConfig{
		RetryBudget: 1, BackoffBase: 10 * time.Millisecond, Now: clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	poison := co.Acquire("w1")
	var poisonGrants int
	for {
		lr := co.Acquire("w1")
		if lr.Cell == nil {
			if lr.Done {
				break
			}
			clk.Advance(time.Duration(lr.WaitMs) * time.Millisecond)
			continue
		}
		if lr.Hash == poison.Hash {
			poisonGrants++
		}
		status := string(govern.StateCompleted)
		errMsg := ""
		row := []string{"r-" + lr.Hash}
		if lr.Hash == poison.Hash || lr.LeaseID == poison.LeaseID {
			status, errMsg, row = string(govern.StateFailed), "simulated poison", nil
		}
		if _, err := co.Complete(CompleteRequest{LeaseID: lr.LeaseID, Hash: lr.Hash, Status: status, Err: errMsg, Row: row}); err != nil {
			t.Fatal(err)
		}
	}
	// The first grant (held from the initial Acquire) plus one retry
	// spends a budget of 1. Fail the held lease too.
	if _, err := co.Complete(CompleteRequest{LeaseID: poison.LeaseID, Hash: poison.Hash, Status: string(govern.StateFailed), Err: "simulated poison"}); err != nil {
		t.Fatal(err)
	}
	// Drain: the poison cell gets its final retry, then quarantine.
	for {
		clk.Advance(50 * time.Millisecond)
		lr := co.Acquire("w1")
		if lr.Done {
			break
		}
		if lr.Cell != nil {
			if lr.Hash != poison.Hash {
				t.Fatalf("unexpected non-poison grant %s after drain", lr.Hash)
			}
			co.Complete(CompleteRequest{LeaseID: lr.LeaseID, Hash: lr.Hash, Status: string(govern.StateFailed), Err: "simulated poison"})
		}
	}

	st := co.Progress()
	if st.Quarantined != 1 || st.Completed != 5 || !st.Settled() {
		t.Fatalf("final status = %+v, want 5 completed + 1 quarantined, settled", st)
	}
	if got := co.counter(t, MetricQuarantined); got != 1 {
		t.Fatalf("quarantined counter = %d, want 1", got)
	}
	res, err := co.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var quarantined int
	for _, cs := range res.Statuses {
		if cs.State == govern.StateQuarantined {
			quarantined++
			if cs.Err == "" {
				t.Error("quarantined cell carries no error message")
			}
		}
	}
	if quarantined != 1 || len(res.Table.Rows) != 5 {
		t.Fatalf("result: %d quarantined statuses, %d rows; want 1 and 5", quarantined, len(res.Table.Rows))
	}
}

// A second completion for a settled cell is a harmless, counted no-op.
func TestDuplicateCompletionIsNoOp(t *testing.T) {
	co, err := NewCoordinator(smallSpec(), CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	lr := co.Acquire("w1")
	req := CompleteRequest{LeaseID: lr.LeaseID, Hash: lr.Hash, Status: string(govern.StateCompleted), Row: []string{"row"}}
	if resp, err := co.Complete(req); err != nil || resp.Duplicate {
		t.Fatalf("first completion: %+v, %v", resp, err)
	}
	resp, err := co.Complete(req)
	if err != nil || !resp.Duplicate {
		t.Fatalf("second completion: %+v, %v; want duplicate", resp, err)
	}
	if got := co.counter(t, MetricDuplicates); got != 1 {
		t.Fatalf("duplicates counter = %d, want 1", got)
	}
	if got := co.counter(t, MetricCompleted); got != 1 {
		t.Fatalf("completed counter = %d, want 1", got)
	}
}

// A stale worker's failure verdict must not disturb a reassignment in
// flight — only its completed row is lease-independent.
func TestStaleReportsAgainstReassignedLease(t *testing.T) {
	clk := newFakeClock()
	co, err := NewCoordinator(smallSpec(), CoordinatorConfig{
		LeaseTTL: time.Second, BackoffBase: 10 * time.Millisecond, Now: clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	old := co.Acquire("slow")
	clk.Advance(time.Second + time.Millisecond)
	if co.Renew(old.LeaseID) { // triggers the lazy expiry sweep
		t.Fatal("renew of an expired lease answered true")
	}
	clk.Advance(20 * time.Millisecond) // clear the reassignment backoff
	renewed := co.Acquire("fast")
	if renewed.Cell == nil || renewed.Hash != old.Hash {
		t.Fatalf("post-expiry acquire = %+v, want cell %s re-granted", renewed, old.Hash)
	}
	if renewed.LeaseID == old.LeaseID {
		t.Fatal("reassignment reused the old lease id")
	}

	// Stale failure: dropped as a duplicate, new lease undisturbed.
	resp, err := co.Complete(CompleteRequest{LeaseID: old.LeaseID, Hash: old.Hash, Status: string(govern.StateFailed), Err: "stale"})
	if err != nil || !resp.Duplicate {
		t.Fatalf("stale failure report: %+v, %v; want duplicate", resp, err)
	}
	if !co.Renew(renewed.LeaseID) {
		t.Fatal("current lease was disturbed by a stale failure report")
	}

	// Stale completed row: accepted — deterministic rows are
	// interchangeable, so a slow worker finishing late still counts.
	resp, err = co.Complete(CompleteRequest{LeaseID: old.LeaseID, Hash: old.Hash, Status: string(govern.StateCompleted), Row: []string{"late-row"}})
	if err != nil || resp.Duplicate {
		t.Fatalf("late completed row: %+v, %v; want accepted", resp, err)
	}
	// The fast worker's own completion is now the duplicate.
	resp, err = co.Complete(CompleteRequest{LeaseID: renewed.LeaseID, Hash: renewed.Hash, Status: string(govern.StateCompleted), Row: []string{"late-row"}})
	if err != nil || !resp.Duplicate {
		t.Fatalf("second completion: %+v, %v; want duplicate", resp, err)
	}
}

// Deterministic budget trips (deadline/livelock) are terminal, never
// retried; transient verdicts consume the retry budget.
func TestBudgetTripIsTerminal(t *testing.T) {
	co, err := NewCoordinator(smallSpec(), CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	lr := co.Acquire("w1")
	if _, err := co.Complete(CompleteRequest{LeaseID: lr.LeaseID, Hash: lr.Hash, Status: string(govern.StateDeadline), Err: "sim budget"}); err != nil {
		t.Fatal(err)
	}
	st := co.Progress()
	if st.Skipped != 1 || st.Pending != 5 {
		t.Fatalf("status after deadline = %+v, want 1 skipped", st)
	}
	// The tripped cell is never re-granted.
	for {
		next := co.Acquire("w1")
		if next.Cell == nil {
			break
		}
		if next.Hash == lr.Hash {
			t.Fatal("deadline-tripped cell was re-granted")
		}
	}
}

// A coordinator crash mid-sweep resumes from the journal: completed
// rows replay without re-running, unfinished cells rerun, and the final
// table is byte-identical to an uninterrupted serial run.
func TestCoordinatorCrashResume(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "dist.jsonl")
	spec := smallSpec()

	serialTable, err := smallSpec().Run()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := serialTable.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}

	// First incarnation: complete 3 cells with real rows, then "crash"
	// (drop the coordinator with one lease still outstanding).
	co1, err := NewCoordinator(spec, CoordinatorConfig{Journal: jpath})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		lr := co1.Acquire("w1")
		state, row, errMsg := LocalRunner(context.Background(), *lr.Cell)
		if _, err := co1.Complete(CompleteRequest{LeaseID: lr.LeaseID, Hash: lr.Hash, Status: string(state), Row: row, Err: errMsg}); err != nil {
			t.Fatal(err)
		}
	}
	co1.Acquire("w1") // outstanding lease at crash time
	if err := co1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second incarnation resumes: 3 rows reused, 3 cells (including the
	// one that was leased at the crash) rerun.
	co2, err := NewCoordinator(spec, CoordinatorConfig{Journal: jpath, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	if st := co2.Progress(); st.Reused != 3 || st.Completed != 3 || st.Pending != 3 {
		t.Fatalf("resumed status = %+v, want 3 reused completed + 3 pending", st)
	}
	var reruns int
	for {
		lr := co2.Acquire("w2")
		if lr.Done {
			break
		}
		if lr.Cell == nil {
			t.Fatalf("resume starved with %+v", co2.Progress())
		}
		reruns++
		state, row, errMsg := LocalRunner(context.Background(), *lr.Cell)
		if _, err := co2.Complete(CompleteRequest{LeaseID: lr.LeaseID, Hash: lr.Hash, Status: string(state), Row: row, Err: errMsg}); err != nil {
			t.Fatal(err)
		}
	}
	if reruns != 3 {
		t.Fatalf("resume reran %d cells, want 3", reruns)
	}
	res, err := co2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := res.Table.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("resumed distributed table differs from serial:\n--- serial ---\n%s\n--- resumed ---\n%s", want.String(), got.String())
	}
}

// End to end over real HTTP: three workers (one injecting a duplicate
// completion) drain the sweep through the coordinator handler, and the
// merged table is byte-identical to a single-process -jobs 1 run.
func TestDistributedByteIdenticalToSerial(t *testing.T) {
	serialTable, err := smallSpec().Run()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := serialTable.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}

	co, err := NewCoordinator(smallSpec(), CoordinatorConfig{LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		w := NewWorker(WorkerConfig{
			Coordinator:       srv.URL,
			Name:              fmt.Sprintf("w%d", i),
			InjectDupComplete: i == 1,
		})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}(i)
	}
	res, err := co.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, werr := range errs {
		if werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		}
	}

	var got bytes.Buffer
	if err := res.Table.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("distributed table differs from serial:\n--- serial ---\n%s\n--- distributed ---\n%s", want.String(), got.String())
	}
	if got := co.counter(t, MetricDuplicates); got < 1 {
		t.Errorf("duplicates counter = %d, want >= 1 (dup was injected)", got)
	}
	if res.Reused != 0 || res.Skipped != 0 {
		t.Errorf("clean run reported reused=%d skipped=%d", res.Reused, res.Skipped)
	}
}

// Chaos: a worker dies (kill -9 shaped: heartbeats just stop) while
// holding a lease. The lease expires, the cell is reassigned to a
// surviving worker, and the sweep completes with the full table.
func TestWorkerDeathRecovery(t *testing.T) {
	serialTable, err := smallSpec().Run()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := serialTable.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}

	co, err := NewCoordinator(smallSpec(), CoordinatorConfig{
		LeaseTTL: 200 * time.Millisecond, BackoffBase: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// The victim acquires a lease, then "dies": its context is cut, so
	// heartbeats stop and no report is ever delivered.
	victimCtx, kill := context.WithCancel(ctx)
	acquired := make(chan struct{})
	victim := NewWorker(WorkerConfig{
		Coordinator: srv.URL,
		Name:        "victim",
		Runner: func(rctx context.Context, cs CellSpec) (govern.State, []string, string) {
			close(acquired)
			<-rctx.Done()
			return govern.StateCancelled, nil, "killed"
		},
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		victim.Run(victimCtx)
	}()
	select {
	case <-acquired:
	case <-time.After(30 * time.Second):
		t.Fatal("victim never acquired a lease")
	}
	kill()

	// A survivor drains the whole sweep, including the orphaned cell.
	survivor := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "survivor"})
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := survivor.Run(ctx); err != nil {
			t.Errorf("survivor: %v", err)
		}
	}()

	res, err := co.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	var got bytes.Buffer
	if err := res.Table.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("post-death table differs from serial:\n--- serial ---\n%s\n--- recovered ---\n%s", want.String(), got.String())
	}
	if got := co.counter(t, MetricLeasesExpired); got < 1 {
		t.Errorf("expired counter = %d, want >= 1 (victim died holding a lease)", got)
	}
	if got := co.counter(t, MetricRetries); got < 1 {
		t.Errorf("retries counter = %d, want >= 1 (orphaned cell was re-granted)", got)
	}
}

// Stop settles the sweep early: workers see done and exit, Wait returns
// with the cells that finished, and unstarted cells count as skipped.
func TestStopSettlesEarly(t *testing.T) {
	co, err := NewCoordinator(smallSpec(), CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	lr := co.Acquire("w1")
	if _, err := co.Complete(CompleteRequest{LeaseID: lr.LeaseID, Hash: lr.Hash, Status: string(govern.StateCompleted), Row: []string{"row"}}); err != nil {
		t.Fatal(err)
	}
	co.Stop()
	if next := co.Acquire("w1"); !next.Done {
		t.Fatalf("acquire after Stop = %+v, want done", next)
	}
	res, err := co.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 1 || res.Skipped != 5 {
		t.Fatalf("stopped result: %d rows, %d skipped; want 1 and 5", len(res.Table.Rows), res.Skipped)
	}
}
