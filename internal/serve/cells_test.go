package serve

import (
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"
)

// TestOversizedSweepRejectedBeforeEnumeration pins that the cell limit
// is checked on the count of the cross product, before any cell is
// built: a 1.3 KB body naming 200,000 cells answers 400 having
// allocated a small fraction of what enumerating them costs, and a body
// whose product overflows int answers 400 too.
func TestOversizedSweepRejectedBeforeEnumeration(t *testing.T) {
	_, ts := testServer(t, Config{})
	list := func(n int, f func(i int) any) []any {
		out := make([]any, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	big := map[string]any{
		"workload":    "regular",
		"footprints":  list(100, func(i int) any { return 0.01 * float64(i+1) }),
		"batch":       list(100, func(i int) any { return 64 + i }),
		"vablock_kib": list(20, func(i int) any { return 64 << (i % 6) }),
	}
	body, err := json.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > 1500 {
		t.Fatalf("body is %d bytes, want a ~1.3 KB request", len(body))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	status, _, resp := postJSON(t, ts.URL+"/v1/sweep", json.RawMessage(body))
	runtime.ReadMemStats(&after)
	if status != http.StatusBadRequest || !strings.Contains(string(resp), "200000 cells") {
		t.Fatalf("status %d, body %s; want 400 naming 200000 cells", status, resp)
	}
	// Enumerating the 200,000 cells allocates tens of megabytes.
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Errorf("rejecting the sweep allocated %d bytes; the cross product was built", got)
	}

	n := 250
	strs := func(s string) []any { return list(n, func(int) any { return s }) }
	overflow := map[string]any{
		"workload":    "regular",
		"footprints":  list(n, func(i int) any { return 0.01 * float64(i+1) }),
		"prefetch":    strs("none"),
		"replay":      strs("batch"),
		"evict":       strs("lru"),
		"batch":       list(n, func(i int) any { return 64 + i }),
		"vablock_kib": list(n, func(int) any { return 2048 }),
		"gpus":        list(n, func(int) any { return 2 }),
		"migration":   strs("first-touch"),
	}
	status, _, resp = postJSON(t, ts.URL+"/v1/sweep", overflow)
	if status != http.StatusBadRequest || !strings.Contains(string(resp), "limit") {
		t.Fatalf("overflowing sweep: status %d, body %s; want 400 over the limit", status, resp)
	}
}
