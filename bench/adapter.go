package main

// This file is the benchmark's only door into uvmsim/internal/...: when a
// config or result type there changes shape, only this file changes. It
// speaks the benchmark's own types (sweepDef, cellRun, simReq, distRun)
// to the workloads, reads counts from typed RunResult fields and metrics
// registry snapshots, and times nothing itself except where a public
// call boundary exists only in here.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"uvmsim/internal/core"
	"uvmsim/internal/dist"
	"uvmsim/internal/exp"
	"uvmsim/internal/govern"
	"uvmsim/internal/obs"
	"uvmsim/internal/serve"
	"uvmsim/internal/serve/client"
	"uvmsim/internal/stats"
	"uvmsim/internal/sweep"
	"uvmsim/internal/workloads"
)

const mib = 1 << 20

// runFig1 runs the Fig. 1 suite the way `uvmbench -exp fig1 -jobs 2`
// does and returns its rendered table and row count.
func runFig1(seed uint64, memMiB int64) (string, int, error) {
	sc := exp.DefaultScale()
	sc.GPUMemoryBytes = memMiB * mib
	sc.Seed = seed
	sc.Jobs = 2
	tables, err := exp.Run("fig1", sc)
	if err != nil {
		return "", 0, err
	}
	return tables[0].String(), len(tables[0].Rows), nil
}

// sweepDef is a sweep in the benchmark's terms, with uvmsweep's defaults
// for every knob it leaves out (evict lru, batch 256, 2 MiB VABlocks).
type sweepDef struct {
	workload   string
	memMiB     int64
	seed       uint64
	footprints []float64
	prefetch   []string
	replay     []string
	gpus       int
	migration  string
}

func (d sweepDef) spec() *sweep.Spec {
	s := &sweep.Spec{
		Workload: d.workload, GPUMemoryBytes: d.memMiB * mib, Seed: d.seed,
		Footprints: d.footprints, Prefetch: d.prefetch, Replay: d.replay,
		Evict: []string{"lru"}, Batch: []int{256}, VABlock: []int64{2048 << 10},
		Jobs: 1,
	}
	if d.gpus > 1 {
		s.GPUs = []int{d.gpus}
		s.Migration = []string{d.migration}
	}
	return s
}

// sweepTable is a sweep's result: the text table and its rendered rows.
type sweepTable struct {
	text string
	rows [][]string
}

// runSweepSerial runs the sweep in-process at -jobs 1: the reference
// every other path is checked against.
func runSweepSerial(d sweepDef) (*sweepTable, error) {
	tb, err := d.spec().Run()
	if err != nil {
		return nil, err
	}
	return &sweepTable{text: tb.String(), rows: tb.Rows}, nil
}

// cellRun is one single-cell sweep executed as three separate public
// calls, with the moment each began and ended and the simulated work it
// did, keyed by per-layer metric name.
type cellRun struct {
	row             []string
	marks           [4]time.Time // before NewSystem, build, RunUVM, and after RunUVM
	buildAllocBytes uint64
	events          uint64
	counts          map[string]float64
}

// runCellSplit executes d's single cell as sweep's runConfig does, but
// through core.NewSystem → workload builder → RunUVM called one by one,
// and renders the same row.
func runCellSplit(d sweepDef) (*cellRun, error) {
	s := d.spec()
	configs, err := s.Configs()
	if err != nil {
		return nil, err
	}
	if len(configs) != 1 {
		return nil, fmt.Errorf("sweep %s has %d cells, want 1", d.workload, len(configs))
	}
	c := configs[0]
	cfg := core.DefaultConfig(s.GPUMemoryBytes)
	cfg.Seed = s.Seed
	cfg.PrefetchPolicy = c.Prefetch
	cfg.EvictPolicy = c.Evict
	cfg.Driver.Policy = c.Replay
	cfg.Driver.BatchSize = c.Batch
	cfg.VABlockSize = c.VABlock
	if c.GPUs > 1 {
		cfg.GPUs = c.GPUs
		cfg.Migration = c.Migration
	}
	builder, err := workloads.Get(s.Workload)
	if err != nil {
		return nil, err
	}
	p := workloads.DefaultParams()
	p.Seed = s.Seed + 100

	out := &cellRun{}
	out.marks[0] = time.Now()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	out.marks[1] = time.Now()
	alloc0 := heapAllocBytes()
	k, err := builder(sys, int64(c.Footprint*float64(s.GPUMemoryBytes)), p)
	if err != nil {
		return nil, err
	}
	out.buildAllocBytes = heapAllocBytes() - alloc0
	out.marks[2] = time.Now()
	res, err := sys.RunUVM(k)
	if err != nil {
		return nil, err
	}
	out.marks[3] = time.Now()

	out.row = stats.RenderCells(
		c.Footprint*100, c.Prefetch, c.Replay.String(), c.Evict, c.Batch, c.VABlock>>10,
		float64(res.TotalTime.Micros())/1000, res.Faults, res.Evictions,
		float64(res.BytesH2D)/mib, float64(res.BytesD2H)/mib,
		float64(res.GPU.StallTime.Micros())/1000)
	out.events = sys.Engine().Executed()
	counters := map[string]float64{}
	for _, smp := range sys.Metrics().Samples() {
		if smp.Kind == obs.KindCounter {
			counters[smp.Name] = float64(smp.Value)
		}
	}
	out.counts = map[string]float64{
		"workloads.accesses":         float64(k.TotalAccesses()),
		"gpusim.accesses":            float64(res.GPU.Accesses),
		"gpusim.faults_raised":       float64(res.GPU.FaultsRaised),
		"gpusim.faults_coalesced":    float64(res.GPU.FaultsCoalesced),
		"gpusim.remote_accesses":     float64(res.GPU.RemoteAccesses),
		"driver.batches":             counters["batches"],
		"driver.faults_fetched":      float64(res.Faults),
		"driver.faults_deduped":      counters["faults_deduped"],
		"driver.prefetched_pages":    counters["prefetched_pages"],
		"driver.evictions":           float64(res.Evictions),
		"driver.replays":             counters["replays"],
		"multigpu.p2p_migrations":    counters["p2p_migrations"],
		"multigpu.p2p_invalidations": counters["p2p_invalidations"],
		"multigpu.p2p_mb":            float64(res.BytesP2P) / mib,
		"xfer.h2d_mb":                float64(res.BytesH2D) / mib,
	}
	if res.Faults > 0 {
		out.counts["driver.dedup_frac"] = counters["faults_deduped"] / float64(res.Faults)
	}
	return out, nil
}

// serveHarness is an in-process uvmserved with default serving knobs
// behind httptest, driven through the typed client over at most two
// connections.
type serveHarness struct {
	srv *serve.Server
	ts  *httptest.Server
	tr  *http.Transport
	cl  *client.Client
}

func newServeHarness() *serveHarness {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	return &serveHarness{srv: srv, ts: ts, tr: tr,
		cl: client.New(ts.URL, &http.Client{Transport: tr, Timeout: time.Minute})}
}

// close stops the server once every in-flight request has finished.
func (h *serveHarness) close() {
	h.tr.CloseIdleConnections()
	h.ts.Close()
	h.srv.Close()
}

// simReq is one single-cell request; every knob it omits takes the
// server's default, which equals sweepDef's.
type simReq struct {
	workload  string
	memMiB    int64
	seed      uint64
	footprint float64
	prefetch  string
}

func (r simReq) sweepDef() sweepDef {
	return sweepDef{workload: r.workload, memMiB: r.memMiB, seed: r.seed,
		footprints: []float64{r.footprint}, prefetch: []string{r.prefetch}, replay: []string{"batchflush"}}
}

// sim issues POST /v1/sim and returns the HTTP status and exact body; err
// is a transport failure.
func (h *serveHarness) sim(ctx context.Context, r simReq) (int, []byte, error) {
	res, err := h.cl.Sim(ctx, serve.SimRequest{
		Workload: r.workload, GPUMemMiB: r.memMiB, Seed: r.seed,
		Footprint: r.footprint, Prefetch: r.prefetch,
	})
	if err != nil {
		return 0, nil, err
	}
	return res.Status, res.Body, nil
}

// scrape fetches GET /metrics; any non-2xx answer is an error.
func (h *serveHarness) scrape(ctx context.Context) error {
	_, err := h.cl.Metrics(ctx)
	return err
}

// cacheCounts is the server cache's cumulative activity.
type cacheCounts struct {
	hits, misses, coalesced, evictions uint64
}

func (h *serveHarness) cacheCounts() cacheCounts {
	st := h.srv.Cache().Stats()
	return cacheCounts{hits: st.Hits, misses: st.Misses, coalesced: st.Coalesced, evictions: st.Evictions}
}

// simRow decodes a /v1/sim body into its terminal status and row.
func simRow(body []byte) (string, []string, error) {
	var resp serve.SimResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return "", nil, err
	}
	return resp.Status, resp.Row, nil
}

// completedStatus is the status a fully simulated cell reports.
const completedStatus = string(govern.StateCompleted)

// distRun is one whole sweep through the lease fabric.
type distRun struct {
	table       string
	quarantined int
	// granted..duplicates are the coordinator's fabric counters.
	granted, renewals, retries, duplicates uint64
	// busy is the summed time workers spent inside their Runner; tailIdle
	// how long the first worker to run out of cells waited for the last.
	busy, tailIdle time.Duration
}

// distWorkers is the number of in-process workers draining a sweep.
const distWorkers = 2

// runDistSweep runs d through a fresh coordinator, journaling to a new
// journal in dir, behind httptest and two in-process workers, and waits
// until both have exited. With rec set, every Runner call and
// coordinator RPC becomes a span on its worker's lane.
func runDistSweep(ctx context.Context, d sweepDef, dir string, rec *spans, op int) (*distRun, error) {
	co, err := dist.NewCoordinator(d.spec(), dist.CoordinatorConfig{
		Journal: filepath.Join(dir, "journal.jsonl"),
	})
	if err != nil {
		return nil, err
	}
	defer co.Close()
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()

	wctx, stop := context.WithCancel(ctx)
	defer stop()
	var mu sync.Mutex
	var busy time.Duration
	lastEnd := make([]time.Time, distWorkers)
	errs := make([]error, distWorkers)
	var wg sync.WaitGroup
	for w := 0; w < distWorkers; w++ {
		lane := w + 1
		cfg := dist.WorkerConfig{
			Coordinator: ts.URL,
			Name:        fmt.Sprintf("bench-%d", w),
			Runner: func(ctx context.Context, cs dist.CellSpec) (govern.State, []string, string) {
				start := time.Now()
				st, row, msg := dist.LocalRunner(ctx, cs)
				end := time.Now()
				mu.Lock()
				busy += end.Sub(start)
				lastEnd[w] = end
				mu.Unlock()
				rec.add("dist.runner", lane, op, start, end)
				return st, row, msg
			},
		}
		if rec != nil {
			cfg.HTTPClient = &http.Client{Timeout: 30 * time.Second,
				Transport: rpcTimer{rec: rec, lane: lane, op: op, next: http.DefaultTransport}}
		}
		worker := dist.NewWorker(cfg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = worker.Run(wctx)
		}()
	}
	res, err := co.Wait(ctx)
	settled := time.Now()
	// A worker idling in its poll backoff would otherwise sleep out the
	// rest of its wait hint before seeing the sweep is done.
	stop()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for w, werr := range errs {
		if werr != nil && !errors.Is(werr, context.Canceled) {
			return nil, fmt.Errorf("worker %d: %w", w, werr)
		}
	}
	out := &distRun{table: res.Table.String(), quarantined: res.Counts()[govern.StateQuarantined], busy: busy}
	first := settled
	for _, t := range lastEnd {
		if !t.IsZero() && t.Before(first) {
			first = t
		}
	}
	out.tailIdle = settled.Sub(first)
	for _, smp := range co.Samples() {
		switch smp.Name {
		case dist.MetricLeasesGranted:
			out.granted = smp.Value
		case dist.MetricRenewals:
			out.renewals = smp.Value
		case dist.MetricRetries:
			out.retries = smp.Value
		case dist.MetricDuplicates:
			out.duplicates = smp.Value
		}
	}
	return out, nil
}

// rpcTimer records each coordinator RPC a worker makes as a span named
// after its endpoint (dist.rpc.lease, dist.rpc.complete, dist.rpc.renew).
type rpcTimer struct {
	rec      *spans
	lane, op int
	next     http.RoundTripper
}

func (t rpcTimer) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.next.RoundTrip(r)
	t.rec.add("dist.rpc."+strings.TrimPrefix(r.URL.Path, "/v1/"), t.lane, t.op, start, time.Now())
	return resp, err
}
