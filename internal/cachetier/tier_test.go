package cachetier

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"uvmsim/internal/confighash"
	"uvmsim/internal/dist"
	"uvmsim/internal/driver"
	"uvmsim/internal/govern"
	"uvmsim/internal/netchaos"
	"uvmsim/internal/serve"
	"uvmsim/internal/serve/client"
)

// testCell is one tiny cell expressible through the serve wire form.
func testCell(fp float64) dist.CellSpec {
	return dist.CellSpec{
		Workload:       "regular",
		GPUMemoryBytes: 16 << 20,
		Seed:           1,
		Footprint:      fp,
		Prefetch:       "none",
		Replay:         driver.ReplayBatchFlush,
		Evict:          "lru",
		Batch:          256,
		VABlock:        2 << 20,
		GPUs:           1,
	}
}

// newNode spins up one real uvmserved node and returns its URL.
func newNode(t *testing.T) (*serve.Server, string) {
	t.Helper()
	s := serve.New(serve.Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts.URL
}

func localRow(t *testing.T, cs dist.CellSpec) []string {
	t.Helper()
	st, row, errMsg := dist.LocalRunner(context.Background(), cs)
	if st != govern.StateCompleted {
		t.Fatalf("local run: %s: %s", st, errMsg)
	}
	return row
}

func keyOf(t *testing.T, cs dist.CellSpec) string {
	t.Helper()
	return confighash.Sum(cs.Label())
}

// A healthy tier answers the same row the local engine computes — the
// tier is an accelerator, not a different answer.
func TestTierLookupMatchesLocal(t *testing.T) {
	_, url := newNode(t)
	tier := New(Config{Nodes: []string{url}, ProbeInterval: -1})
	cs := testCell(0.5)
	row, nodeURL, ok := tier.Lookup(context.Background(), cs)
	if !ok {
		t.Fatal("lookup against a healthy node missed")
	}
	if nodeURL != url {
		t.Fatalf("served from %s, want %s", nodeURL, url)
	}
	if want := localRow(t, cs); !reflect.DeepEqual(row, want) {
		t.Fatalf("tier row %v != local row %v", row, want)
	}
	if got := tier.counterGet(MetricHits); got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
}

// When the owner is down, reads fail over to the next ring node and
// still answer.
func TestTierFailoverOnOwnerDeath(t *testing.T) {
	_, u1 := newNode(t)
	_, u2 := newNode(t)
	tier := New(Config{Nodes: []string{u1, u2}, ProbeInterval: -1, LookupTimeout: 2 * time.Second})
	cs := testCell(0.5)
	owner := tier.ring.Owner(keyOf(t, cs))
	// Kill the owner: point its client at a listener that already
	// closed, so every connection refuses. (The ring hashes node names,
	// so the URL itself must stay as configured.)
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close()
	tier.nodes[owner].client = client.New(deadURL, nil)

	row, nodeURL, ok := tier.Lookup(context.Background(), cs)
	if !ok {
		t.Fatal("lookup with one dead node missed entirely")
	}
	if nodeURL == tier.nodes[owner].url {
		t.Fatal("row claims to come from the dead owner")
	}
	if want := localRow(t, cs); !reflect.DeepEqual(row, want) {
		t.Fatalf("failover row %v != local row %v", row, want)
	}
	if got := tier.counterGet(MetricFailovers); got == 0 {
		t.Fatal("failover not counted")
	}
	if got := tier.counterGet(MetricNodeFailures); got == 0 {
		t.Fatal("node failure not counted")
	}
}

// A fully partitioned tier (every node blackholed by netchaos) degrades
// to the local engine with byte-identical output, and the breakers
// open.
func TestTierPartitionFallsBackByteIdentical(t *testing.T) {
	_, upstream := newNode(t)
	proxies := make([]string, 2)
	for i := range proxies {
		p, err := netchaos.New(upstream, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		rules, _ := netchaos.ParseRules("blackhole")
		p.SetRules(rules)
		ts := httptest.NewServer(p)
		t.Cleanup(ts.Close)
		t.Cleanup(p.Close) // LIFO: release blackholed handlers before ts.Close waits on them
		proxies[i] = ts.URL
	}
	tier := New(Config{
		Nodes:         proxies,
		ProbeInterval: -1,
		LookupTimeout: 100 * time.Millisecond, // do not wait out the blackhole
		MaxFailover:   -1,
	})
	runner := tier.Runner(dist.LocalRunner)
	cs := testCell(0.5)
	want := localRow(t, cs)
	// Threshold failures per node open both breakers.
	for i := 0; i < DefaultFailureThreshold; i++ {
		st, row, errMsg := runner(context.Background(), cs)
		if st != govern.StateCompleted {
			t.Fatalf("partitioned run %d: %s: %s", i, st, errMsg)
		}
		if !reflect.DeepEqual(row, want) {
			t.Fatalf("partitioned row %v != local row %v", row, want)
		}
	}
	if got := tier.counterGet(MetricBreakerOpen); got != 2 {
		t.Fatalf("breaker opens = %d, want 2 (both nodes dark)", got)
	}
	// With both breakers open, lookups fail fast: no node is tried.
	before := tier.counterGet(MetricNodeFailures)
	start := time.Now()
	if _, _, ok := tier.Lookup(context.Background(), cs); ok {
		t.Fatal("lookup succeeded against a fully open tier")
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("open tier lookup took %s, want fail-fast", d)
	}
	if got := tier.counterGet(MetricNodeFailures); got != before {
		t.Fatalf("open tier lookup still contacted nodes (failures %d -> %d)", before, got)
	}
}

// Fill write-throughs a completed row to the owner node, and a direct
// read from that node answers from cache with the same bytes a
// server-side run would produce.
func TestTierFillThenServerHit(t *testing.T) {
	_, url := newNode(t)
	tier := New(Config{Nodes: []string{url}, ProbeInterval: -1})
	cs := testCell(0.5)
	row := localRow(t, cs)
	if err := tier.Fill(context.Background(), cs, row); err != nil {
		t.Fatalf("fill: %v", err)
	}
	if got := tier.counterGet(MetricFills); got != 1 {
		t.Fatalf("fills = %d, want 1", got)
	}
	// The node must now answer /v1/sim from its cache, not by simulating.
	req, ok := serve.SimRequestOf(cs)
	if !ok {
		t.Fatal("cell not expressible via wire form")
	}
	res, err := client.New(url, nil).Sim(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != serve.SourceHit {
		t.Fatalf("post-fill sim source = %q, want %q", res.Source, serve.SourceHit)
	}
	var resp serve.SimResponse
	if err := res.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Row, row) {
		t.Fatalf("cached row %v != filled row %v", resp.Row, row)
	}
	if resp.Status != string(govern.StateCompleted) {
		t.Fatalf("cached status = %q, want completed", resp.Status)
	}
}

// An open breaker recovers through the health prober: the probe takes
// the half-open trial against a healed node and closes the breaker
// without any live traffic.
func TestProbeRecoversOpenBreaker(t *testing.T) {
	srv, url := newNode(t)
	clk := newTickClock()
	tier := New(Config{Nodes: []string{url}, ProbeInterval: -1, Now: clk.Now})
	n := tier.nodes[0]

	// Drain the node: /healthz answers 503, probes fail, breaker opens.
	srv.BeginDrain()
	ctx := context.Background()
	for i := 0; i < DefaultFailureThreshold; i++ {
		tier.probe(ctx, n)
	}
	if got := n.breaker.State(); got != BreakerOpen {
		t.Fatalf("breaker = %v after %d failed probes, want open", got, DefaultFailureThreshold)
	}
	if got := tier.counterGet(MetricProbeFailures); got != uint64(DefaultFailureThreshold) {
		t.Fatalf("probe failures = %d, want %d", got, DefaultFailureThreshold)
	}

	// While open (timeout not elapsed), probes are skipped entirely.
	before := tier.counterGet(MetricProbes)
	tier.probe(ctx, n)
	if got := tier.counterGet(MetricProbes); got != before {
		t.Fatal("probe ran against an open breaker before the timeout")
	}

	// Heal the node (a fresh server on the same handler path) and let
	// the open window lapse: the next probe is the half-open trial.
	_, url2 := newNode(t)
	n.client = client.New(url2, nil)
	clk.Advance(DefaultOpenTimeout)
	tier.probe(ctx, n)
	if got := n.breaker.State(); got != BreakerClosed {
		t.Fatalf("breaker = %v after successful trial probe, want closed", got)
	}
	if got := tier.counterGet(MetricBreakerClose); got != 1 {
		t.Fatalf("breaker closes = %d, want 1", got)
	}
}

// Cells the wire form cannot express are never sent to the tier.
func TestTierSkipsInexactCells(t *testing.T) {
	_, url := newNode(t)
	tier := New(Config{Nodes: []string{url}, ProbeInterval: -1})
	cs := testCell(0.5)
	cs.GPUMemoryBytes += 3 // fractional MiB: not expressible
	if _, _, ok := tier.Lookup(context.Background(), cs); ok {
		t.Fatal("lookup accepted an inexact cell")
	}
	if err := tier.Fill(context.Background(), cs, []string{"x"}); err != nil {
		t.Fatalf("fill of inexact cell errored: %v", err)
	}
	if got := tier.counterGet(MetricFills); got != 0 {
		t.Fatal("inexact cell was filled")
	}
}
