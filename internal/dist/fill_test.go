package dist

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"uvmsim/internal/govern"
	"uvmsim/internal/obs"
)

// Every completed cell is handed to the CacheFill hook exactly once,
// with the row the worker reported; a failing hook is counted but never
// blocks settlement — fills are an optimization, not a dependency.
func TestCompleteDispatchesCacheFill(t *testing.T) {
	var (
		mu    sync.Mutex
		fills = map[string][]string{} // label -> row
	)
	var failLabel string
	co, err := NewCoordinator(smallSpec(), CoordinatorConfig{
		CacheFill: func(ctx context.Context, cs CellSpec, row []string) error {
			label := cs.Label()
			mu.Lock()
			defer mu.Unlock()
			if _, dup := fills[label]; dup {
				t.Errorf("cell %s filled twice", label)
			}
			fills[label] = row
			if label == failLabel {
				return errors.New("injected fill failure")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	rows := map[string][]string{}
	for {
		lr := co.Acquire("w1")
		if lr.Cell == nil {
			break
		}
		label := lr.Cell.Label()
		if failLabel == "" {
			failLabel = label // first cell's fill will error
		}
		row := []string{"r-" + lr.Hash}
		rows[label] = row
		if _, err := co.Complete(CompleteRequest{
			LeaseID: lr.LeaseID, Hash: lr.Hash, Status: string(govern.StateCompleted), Row: row,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := co.Wait(context.Background()); err != nil {
		t.Fatal(err) // Wait also flushes in-flight fills
	}

	mu.Lock()
	defer mu.Unlock()
	if len(fills) != 6 {
		t.Fatalf("fill hook saw %d cells, want 6", len(fills))
	}
	for label, row := range rows {
		got, ok := fills[label]
		if !ok {
			t.Fatalf("completed cell %s never filled", label)
		}
		if len(got) != 1 || got[0] != row[0] {
			t.Fatalf("cell %s filled with %v, want %v", label, got, row)
		}
	}
	if got := co.counter(t, MetricCacheFills); got != 5 {
		t.Fatalf("cachefills counter = %d, want 5 (one injected failure)", got)
	}
	if got := co.counter(t, MetricFillErrors); got != 1 {
		t.Fatalf("fill errors counter = %d, want 1", got)
	}
}

// Failed cells never reach the fill hook: only completed rows are
// worth write-through caching.
func TestFailedCellsNotFilled(t *testing.T) {
	var filled int
	co, err := NewCoordinator(smallSpec(), CoordinatorConfig{
		RetryBudget: -1, // no retries: each failure quarantines immediately
		CacheFill: func(ctx context.Context, cs CellSpec, row []string) error {
			filled++
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	for {
		lr := co.Acquire("w1")
		if lr.Cell == nil {
			break
		}
		if _, err := co.Complete(CompleteRequest{
			LeaseID: lr.LeaseID, Hash: lr.Hash, Status: string(govern.StateFailed), Err: "boom",
		}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := co.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range res.Statuses {
		if cs.State != govern.StateQuarantined {
			t.Fatalf("cell %s settled %s, want quarantined", cs.Label, cs.State)
		}
	}
	if filled != 0 {
		t.Fatalf("fill hook saw %d failed cells, want 0", filled)
	}
}

// ExtraMetrics samples ride along on the coordinator's /metrics page —
// how the cache tier's counters become visible to the chaos gate.
func TestMetricsIncludesExtraSamples(t *testing.T) {
	co, err := NewCoordinator(smallSpec(), CoordinatorConfig{
		ExtraMetrics: func() []obs.Sample {
			return []obs.Sample{{Name: "cachetier_breaker_open_total", Value: 3}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "cachetier_breaker_open_total 3") {
		t.Fatalf("/metrics missing extra sample:\n%s", body)
	}
}
