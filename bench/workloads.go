package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"
)

// newWorkload returns the named workload, ready for setup.
func newWorkload(name string) (workload, error) {
	switch name {
	case "fig1-suite":
		return &fig1Suite{}, nil
	case "sgemm-k4":
		return &sgemmK4{}, nil
	case "serve-mix":
		return &serveMix{}, nil
	case "dist-sweep":
		return &distSweep{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// checkGolden compares a set-up output with its checked-in golden (a path
// relative to the repository root) when the seed-1 goldens apply.
func checkGolden(e *env, rel, got string) error {
	if !e.golden() {
		return nil
	}
	want, err := os.ReadFile(filepath.Join(e.root, rel))
	if err != nil {
		return err
	}
	if got != string(want) {
		return &mismatchError{fmt.Sprintf("%s set-up output differs from %s", e.workload, rel)}
	}
	return nil
}

// fig1Suite runs the paper's Fig. 1 suite (32 cells, jobs=2) per
// operation; every repetition must render the table the setup run did,
// and at seed 1 that table must be results/fig1.txt byte for byte.
type fig1Suite struct {
	want string
}

func (f *fig1Suite) setup(e *env) error {
	text, _, err := runFig1(e.seed, e.memMiB)
	if err != nil {
		return err
	}
	f.want = text
	return checkGolden(e, "results/fig1.txt", text)
}

func (f *fig1Suite) run(e *env, p *phase) {
	for i := 0; p.more(i); i++ {
		op := strconv.Itoa(i)
		start := time.Now()
		text, rows, err := runFig1(e.seed, e.memMiB)
		end := time.Now()
		p.rec.add("exp.run_fig1", 0, i, start, end)
		switch {
		case err != nil:
			p.fail(op, "%v", err)
		case text != f.want:
			p.fail(op, "fig1 table differs from the set-up run's")
		default:
			p.ok(rows)
			p.add("op_ms", ms(end.Sub(start)))
		}
	}
}

// layers: the suite's layers are only visible in the CPU profile.
func (f *fig1Suite) layers(*env, *phase, *phase, func(string, float64)) {}

func (f *fig1Suite) close() {}

// sgemmK4 runs one oversubscribed K=4 access-counter sgemm cell per
// operation, as `uvmsweep -workload sgemm -footprints 1.2 -gpus 4
// -migration access-counter` builds it, calling system construction,
// workload build and the run one at a time. Every row must equal the
// reference row the sweep path produced in setup.
type sgemmK4 struct {
	def  sweepDef
	want []string
	last *cellRun // the most recent operation, for its simulated counts
}

func (s *sgemmK4) setup(e *env) error {
	s.def = sweepDef{workload: "sgemm", memMiB: e.memMiB, seed: e.seed,
		footprints: []float64{1.2}, prefetch: []string{"density"}, replay: []string{"batchflush"},
		gpus: 4, migration: "access-counter"}
	ref, err := runSweepSerial(s.def)
	if err != nil {
		return err
	}
	if len(ref.rows) != 1 {
		return fmt.Errorf("reference sweep has %d rows, want 1", len(ref.rows))
	}
	s.want = ref.rows[0]
	return checkGolden(e, "bench/testdata/sgemm_k4_seed1.txt", ref.text)
}

func (s *sgemmK4) run(e *env, p *phase) {
	for i := 0; p.more(i); i++ {
		op := strconv.Itoa(i)
		c, err := runCellSplit(s.def)
		if err != nil {
			p.fail(op, "%v", err)
			continue
		}
		p.rec.add("core.new_system", 0, i, c.marks[0], c.marks[1])
		p.rec.add("workloads.build", 0, i, c.marks[1], c.marks[2])
		p.rec.add("core.run_uvm", 0, i, c.marks[2], c.marks[3])
		if !slices.Equal(c.row, s.want) {
			p.fail(op, "row %v differs from the sweep path's %v", c.row, s.want)
			continue
		}
		p.ok(1)
		p.add("op_ms", ms(c.marks[3].Sub(c.marks[0])))
		p.add("build_alloc_mb", float64(c.buildAllocBytes)/1e6)
		p.add("events", float64(c.events))
		if c.events > 0 {
			p.add("ns_per_event", float64(c.marks[3].Sub(c.marks[2]).Nanoseconds())/float64(c.events))
		}
		s.last = c
	}
}

func (s *sgemmK4) layers(_ *env, _, t *phase, set func(string, float64)) {
	set("core.new_system_ms", median(t.rec.durationsMs("core.new_system")))
	set("workloads.build_ms", median(t.rec.durationsMs("workloads.build")))
	set("core.run_uvm_ms", median(t.rec.durationsMs("core.run_uvm")))
	set("workloads.build_alloc_mb", median(t.get("build_alloc_mb")))
	set("sim.events", median(t.get("events")))
	set("sim.ns_per_event", median(t.get("ns_per_event")))
	if s.last != nil {
		for name, v := range s.last.counts {
			set(name, v)
		}
	}
}

func (s *sgemmK4) close() {}

// serve-mix request stream.
const (
	hotKeys      = 256 // warmed in setup
	missEvery    = 10  // every 10th operation of a client is a unique cold miss
	scrapeEvery  = 500 // every 500th operation of a client is GET /metrics
	verifyEvery  = 100 // every 100th cold miss is re-run directly afterwards
	serveClients = 2   // closed-loop clients
)

// serveMix drives an in-process uvmserved with two closed-loop clients.
// About 90% of requests hit a 256-key hot set warmed in setup, 10% are
// cold misses with a fresh seed each (96 MiB regular or random, footprint
// 25/50/75%, prefetch none or density), and every 500th operation
// scrapes /metrics. Every hit must return its key's first body byte for
// byte; every 100th miss is re-run in-process afterwards and must match.
// Misses come on a fixed cadence, starting with each client's first
// operation, rather than by coin flip: a miss costs far more than a hit,
// and a drawn share would move alloc_mb_per_op by more than the seeds'
// inputs do.
type serveMix struct {
	h       *serveHarness
	hot     []simReq
	hotBody [][]byte
	phases  int // measured phases so far, so cold keys never repeat

	mu     sync.Mutex
	checks []missCheck
}

// missCheck is one cold miss kept for the direct re-run.
type missCheck struct {
	p    *phase
	op   string
	req  simReq
	body []byte
	ms   float64
}

func (s *serveMix) setup(e *env) error {
	s.close()
	s.h = newServeHarness()
	s.hot = make([]simReq, hotKeys)
	s.hotBody = make([][]byte, hotKeys)
	for i := range s.hot {
		s.hot[i] = simReq{workload: []string{"regular", "random"}[i%2], memMiB: e.memMiB,
			seed: uint64(i) + 1, footprint: 0.0625, prefetch: "none"}
		status, body, err := s.h.sim(context.Background(), s.hot[i])
		if err != nil {
			return err
		}
		if status/100 != 2 {
			return fmt.Errorf("warming hot key %d: HTTP %d", i, status)
		}
		s.hotBody[i] = body
	}
	s.phases, s.checks = 0, nil
	return nil
}

func (s *serveMix) run(e *env, p *phase) {
	before := s.h.cacheCounts()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.client(e, p, s.phases, c)
		}()
	}
	wg.Wait()
	s.phases++
	after := s.h.cacheCounts()
	p.add("cache_hits", float64(after.hits-before.hits))
	p.add("cache_misses", float64(after.misses-before.misses))
	p.add("cache_coalesced", float64(after.coalesced-before.coalesced))
	p.add("cache_evictions", float64(after.evictions-before.evictions))
}

// client is one closed-loop client: it sends its next request only
// after the previous one completed.
func (s *serveMix) client(e *env, p *phase, phaseIdx, c int) {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(e.seed, uint64(phaseIdx*serveClients+c)))
	lane := c + 1
	misses := 0
	for i := 0; p.more(i); i++ {
		op := fmt.Sprintf("%d (client %d)", i, c)
		if (i+1)%scrapeEvery == 0 {
			start := time.Now()
			err := s.h.scrape(ctx)
			end := time.Now()
			p.rec.add("serve.metrics", lane, i, start, end)
			if err != nil {
				p.fail(op, "GET /metrics: %v", err)
				continue
			}
			p.ok(0)
			p.add("scrape_ms", ms(end.Sub(start)))
			continue
		}
		kind, key := "hit", -1
		var req simReq
		if i%missEvery == 0 {
			kind = "miss"
			misses++
			req = simReq{
				workload: []string{"regular", "random"}[rng.IntN(2)], memMiB: e.memMiB,
				// Unique per phase, client and miss, and disjoint from the hot keys.
				seed:      1<<48 | uint64(phaseIdx)<<40 | uint64(c)<<32 | uint64(misses),
				footprint: []float64{0.25, 0.5, 0.75}[rng.IntN(3)],
				prefetch:  []string{"none", "density"}[rng.IntN(2)],
			}
		} else {
			key = rng.IntN(hotKeys)
			req = s.hot[key]
		}
		start := time.Now()
		status, body, err := s.h.sim(ctx, req)
		end := time.Now()
		p.rec.add("serve."+kind, lane, i, start, end)
		switch {
		case err != nil:
			p.fail(op, "POST /v1/sim: %v", err)
			continue
		case status/100 != 2:
			if status == 429 {
				p.add("rejected", 1)
			}
			p.fail(op, "POST /v1/sim: HTTP %d", status)
			continue
		case key >= 0 && !bytes.Equal(body, s.hotBody[key]):
			p.fail(op, "hit body for hot key %d differs from its first body", key)
			continue
		}
		lat := ms(end.Sub(start))
		p.ok(1)
		p.add("op_ms", lat)
		p.add(kind+"_ms", lat)
		if kind == "miss" && misses%verifyEvery == 1 {
			s.mu.Lock()
			s.checks = append(s.checks, missCheck{p: p, op: op, req: req, body: body, ms: lat})
			s.mu.Unlock()
		}
	}
}

// verify re-runs the kept misses through the sweep path, outside the
// measured phases, and compares rows.
func (s *serveMix) verify(*env) {
	for _, mc := range s.checks {
		start := time.Now()
		ref, err := runSweepSerial(mc.req.sweepDef())
		direct := ms(time.Since(start))
		if err != nil {
			mc.p.mismatch(mc.op, "direct re-run of cold miss: %v", err)
			continue
		}
		status, row, err := simRow(mc.body)
		switch {
		case err != nil:
			mc.p.mismatch(mc.op, "decoding cold-miss body: %v", err)
		case status != completedStatus || len(ref.rows) != 1 || !slices.Equal(row, ref.rows[0]):
			mc.p.mismatch(mc.op, "cold miss %s row %v differs from the direct run", status, row)
		default:
			mc.p.add("miss_overhead_ms", mc.ms-direct)
		}
	}
}

func (s *serveMix) layers(_ *env, u, t *phase, set func(string, float64)) {
	hit, miss := u.get("hit_ms"), u.get("miss_ms")
	set("req_per_s", float64(u.attempted)/u.elapsed.Seconds())
	set("hit_p50_ms", quantile(hit, 0.5))
	set("hit_p90_ms", quantile(hit, 0.9))
	set("miss_p50_ms", quantile(miss, 0.5))
	set("miss_p90_ms", quantile(miss, 0.9))
	one := func(series string) float64 { return median(t.get(series)) }
	if lookups := one("cache_hits") + one("cache_misses") + one("cache_coalesced"); lookups > 0 {
		set("serve.hit_ratio", one("cache_hits")/lookups)
	}
	set("serve.coalesced", one("cache_coalesced"))
	set("serve.cache_evictions", one("cache_evictions"))
	set("serve.rejected", float64(len(t.get("rejected"))))
	set("serve.miss_overhead_ms", median(t.get("miss_overhead_ms")))
	set("serve.metrics_scrape_ms", median(t.get("scrape_ms")))
}

func (s *serveMix) close() {
	if s.h != nil {
		s.h.close()
		s.h = nil
	}
}

// distSweep runs a 24-cell K=1 random sweep (96 MiB; footprints 25–150%
// × prefetch none/density × replay batchflush/once) per operation through
// a fresh lease coordinator and two in-process workers. The merged table
// must equal the serial in-process sweep computed in setup, with nothing
// quarantined.
type distSweep struct {
	def  sweepDef
	want string
}

// distSweepTimeout bounds one sweep, about fifty times its usual length.
const distSweepTimeout = time.Minute

func (d *distSweep) setup(e *env) error {
	d.def = sweepDef{workload: "random", memMiB: e.memMiB, seed: e.seed,
		footprints: []float64{0.25, 0.5, 0.75, 1.0, 1.25, 1.5},
		prefetch:   []string{"none", "density"}, replay: []string{"batchflush", "once"}}
	ref, err := runSweepSerial(d.def)
	if err != nil {
		return err
	}
	d.want = ref.text
	return checkGolden(e, "bench/testdata/dist_sweep_seed1.txt", ref.text)
}

func (d *distSweep) run(e *env, p *phase) {
	cells := len(d.def.footprints) * len(d.def.prefetch) * len(d.def.replay)
	for i := 0; p.more(i); i++ {
		op := strconv.Itoa(i)
		// A sweep whose workers all quit early would wait forever.
		ctx, cancel := context.WithTimeout(context.Background(), distSweepTimeout)
		start := time.Now()
		r, err := runDistSweep(ctx, d.def, e.workDir, p.rec, i)
		end := time.Now()
		cancel()
		p.rec.add("dist.sweep", 0, i, start, end)
		switch {
		case err != nil:
			p.fail(op, "%v", err)
			continue
		case r.quarantined != 0:
			p.fail(op, "%d cells quarantined", r.quarantined)
			continue
		case r.table != d.want:
			p.fail(op, "merged table differs from the serial sweep's")
			continue
		}
		p.ok(cells)
		p.add("op_ms", ms(end.Sub(start)))
		p.add("busy_ms", ms(r.busy))
		p.add("tail_idle_ms", ms(r.tailIdle))
		p.add("granted", float64(r.granted))
		p.add("renewals", float64(r.renewals))
		p.add("retries", float64(r.retries))
		p.add("duplicates", float64(r.duplicates))
	}
}

func (d *distSweep) layers(_ *env, _, t *phase, set func(string, float64)) {
	var wall, busy float64
	for _, v := range t.get("op_ms") {
		wall += v
	}
	for _, v := range t.get("busy_ms") {
		busy += v
	}
	if wall > 0 {
		set("dist.runner_busy_frac", busy/(distWorkers*wall))
	}
	if t.cells > 0 {
		set("dist.overhead_ms_per_cell", (distWorkers*wall-busy)/float64(t.cells))
	}
	set("dist.rpc_acquire_p50_ms", median(t.rec.durationsMs("dist.rpc.lease")))
	set("dist.rpc_complete_p50_ms", median(t.rec.durationsMs("dist.rpc.complete")))
	for _, name := range []string{"renewals", "retries", "duplicates"} {
		set("dist."+name, median(t.get(name)))
	}
	set("dist.leases_granted", median(t.get("granted")))
	set("dist.tail_idle_ms", median(t.get("tail_idle_ms")))
}

func (d *distSweep) close() {}
