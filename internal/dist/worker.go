package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"uvmsim/internal/cell"
	"uvmsim/internal/govern"
	"uvmsim/internal/serve"
	"uvmsim/internal/serve/client"
	"uvmsim/internal/sweep"
	"uvmsim/internal/telemetry"
)

// Runner executes one cell and returns its govern verdict, the rendered
// result row (completed cells only), and the failure message (all other
// states). Injected so tests can model poison cells, stalls, and deaths
// without running the engine.
type Runner func(ctx context.Context, cs cell.Spec) (state govern.State, row []string, errMsg string)

// LocalRunner executes the cell through the in-process engine as a
// singleton sweep — the exact validation, governance, and row-rendering
// path a single-process `-jobs 1` run takes, which is what keeps
// distributed rows byte-identical to serial ones.
func LocalRunner(ctx context.Context, cs cell.Spec) (govern.State, []string, string) {
	res, runErr := sweep.Single(cs).RunContext(ctx)
	if runErr != nil {
		st := govern.StatusOf(runErr)
		return st.State, nil, st.Err
	}
	if res == nil || len(res.Statuses) != 1 {
		return govern.StateFailed, nil, "dist: singleton sweep produced no status"
	}
	st := res.Statuses[0]
	switch {
	case st.State == govern.StateCompleted && len(res.Table.Rows) == 1:
		return govern.StateCompleted, res.Table.Rows[0], ""
	case st.State == "":
		// The pool skipped the cell before it started (cancellation).
		return govern.StateCancelled, nil, "cell never started"
	default:
		return st.State, nil, st.Err
	}
}

// ServeRunner consults a uvmserved result cache before simulating
// locally: identical cells across the fleet (or from previous sweeps)
// are answered from the shared content-addressed cache instead of
// re-simulated. Any miss in capability or availability — units the wire
// form cannot carry exactly, server overload, server-side failure —
// falls back to fallback, so the cache tier is an accelerator, never a
// correctness dependency.
// lg may be nil; when set, each answered cell logs one "cell served
// from cache" line under the cell's trace (the trace rides the request
// to uvmserved, whose own access and cache-fill lines carry it too).
func ServeRunner(sc *client.Client, fallback Runner, lg *slog.Logger) Runner {
	return func(ctx context.Context, cs cell.Spec) (govern.State, []string, string) {
		if row, hash, ok := serveLookup(ctx, sc, cs); ok {
			if lg != nil {
				lg.LogAttrs(ctx, slog.LevelInfo, "cell served from cache",
					slog.String(telemetry.KeyConfigHash, hash))
			}
			return govern.StateCompleted, row, ""
		}
		return fallback(ctx, cs)
	}
}

// serveLookup maps the cell onto a /v1/sim request when the mapping is
// exact, and returns the cached row (plus the server's content hash)
// on a completed answer.
func serveLookup(ctx context.Context, sc *client.Client, cs cell.Spec) ([]string, string, bool) {
	req, ok := serve.SimRequestOf(cs)
	if !ok {
		return nil, "", false // the wire form cannot express this cell exactly
	}
	res, err := sc.Sim(ctx, req)
	if err != nil || !res.OK() {
		return nil, "", false
	}
	var resp serve.SimResponse
	if res.Decode(&resp) != nil || resp.Status != string(govern.StateCompleted) || len(resp.Row) == 0 {
		return nil, "", false
	}
	return resp.Row, res.Hash, true
}

// WorkerConfig configures one stateless worker.
type WorkerConfig struct {
	// Coordinator is the coordinator base URL.
	Coordinator string
	// Name identifies the worker in coordinator audit logs.
	Name string
	// Runner executes cells (default LocalRunner).
	Runner Runner
	// HTTPClient overrides the transport (default: 30s per-call timeout).
	HTTPClient *http.Client
	// Logger receives structured worker progress lines (schema:
	// internal/telemetry); nil discards them. CLIs default to a text
	// handler so historical greps ("lease ...") keep matching.
	Logger *slog.Logger
	// Flight is the worker's flight recorder; with FlightDir set, an
	// injected failure (and any future failure trigger) dumps it.
	Flight    *telemetry.Flight
	FlightDir string

	// InjectDupComplete is a chaos hook: the worker re-sends its first
	// completion report, exercising the coordinator's dedup path.
	InjectDupComplete bool
	// InjectFail is a chaos hook: report the first N successfully
	// completed cells as failed instead, exercising the coordinator's
	// retry path and the worker's failure-triggered flight dump. Within
	// the coordinator's retry budget this perturbs nothing: the cell is
	// re-granted and the rerun's deterministic row merges identically.
	InjectFail int
	// SlowStart is a chaos hook: pause this long after acquiring each
	// lease before running, widening the window in which a kill -9 lands
	// on a held lease.
	SlowStart time.Duration
}

// Worker is the stateless lease-loop client: acquire, heartbeat, run,
// report, repeat until the coordinator says done.
type Worker struct {
	cfg      WorkerConfig
	hc       *http.Client
	everOK   bool // at least one successful exchange with the coordinator
	dupSent  bool
	failures int // injected failures delivered so far
}

// NewWorker builds a worker from cfg.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Runner == nil {
		cfg.Runner = LocalRunner
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	return &Worker{cfg: cfg, hc: hc}
}

// logc emits one structured line under ctx (whose trace ID, when set,
// lands on the line automatically).
func (w *Worker) logc(ctx context.Context, level slog.Level, msg string, attrs ...slog.Attr) {
	if w.cfg.Logger != nil {
		w.cfg.Logger.LogAttrs(ctx, level, msg, attrs...)
	}
}

// post issues one JSON exchange against the coordinator.
func (w *Worker) post(ctx context.Context, path string, in, out interface{}) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// consecutive transport failures tolerated before the worker gives up
// on the coordinator.
const maxCoordinatorFailures = 10

// Run executes the lease loop until the coordinator reports the sweep
// done (returns nil), the context cancels (returns ctx.Err()), or the
// coordinator stays unreachable. A coordinator that disappears after
// the worker has talked to it successfully is treated as "sweep over"
// — stateless workers hold nothing worth an error exit.
func (w *Worker) Run(ctx context.Context) error {
	failures := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lr LeaseResponse
		_, err := w.post(ctx, "/v1/lease", LeaseRequest{Worker: w.cfg.Name}, &lr)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			failures++
			if failures >= maxCoordinatorFailures {
				if w.everOK {
					w.logc(ctx, slog.LevelWarn, "coordinator gone; exiting clean",
						slog.Int("attempts", failures))
					return nil
				}
				return fmt.Errorf("dist: coordinator unreachable at %s: %w", w.cfg.Coordinator, err)
			}
			if !sleepCtx(ctx, 200*time.Millisecond) {
				return ctx.Err()
			}
			continue
		}
		failures = 0
		w.everOK = true
		switch {
		case lr.Done:
			w.logc(ctx, slog.LevelInfo, "sweep done; exiting")
			return nil
		case lr.Cell == nil:
			wait := time.Duration(lr.WaitMs) * time.Millisecond
			if wait <= 0 {
				wait = 200 * time.Millisecond
			}
			if !sleepCtx(ctx, wait) {
				return ctx.Err()
			}
		default:
			w.runLease(ctx, lr)
		}
	}
}

// runLease executes one granted cell under its heartbeat. The lease's
// trace ID is stamped into the context first, so every line the worker
// (or the serve-tier client underneath it) logs for this cell carries
// the same trace the coordinator granted.
func (w *Worker) runLease(ctx context.Context, lr LeaseResponse) {
	ctx = telemetry.WithTraceID(ctx, lr.TraceID)
	w.logc(ctx, slog.LevelInfo, "lease acquired",
		slog.String("lease_id", lr.LeaseID),
		slog.Int("attempt", lr.Attempt),
		slog.String(telemetry.KeyConfigHash, lr.Hash),
		slog.String("label", lr.Label))
	// Verify the wire spec reproduces the coordinator's label: a skew
	// here would journal results under the wrong identity.
	if label := lr.Cell.Label(); label != lr.Label {
		w.report(ctx, lr, govern.StateFailed, nil,
			fmt.Sprintf("label skew: coordinator %q vs worker %q", lr.Label, label))
		return
	}
	if w.cfg.SlowStart > 0 && !sleepCtx(ctx, w.cfg.SlowStart) {
		return
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var abandoned bool
	var wg sync.WaitGroup
	hbStop := make(chan struct{})
	ttl := time.Duration(lr.TTLMs) * time.Millisecond
	if ttl > 0 {
		interval := ttl / 3
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-hbStop:
					return
				case <-runCtx.Done():
					return
				case <-t.C:
					status, err := w.post(runCtx, "/v1/renew", RenewRequest{LeaseID: lr.LeaseID}, nil)
					if err == nil && status == http.StatusGone {
						// The lease was reassigned: stop burning CPU on a row
						// another worker now owns. (A completed row would still
						// have been accepted — rows are deterministic.)
						w.logc(runCtx, slog.LevelWarn, "lease gone; abandoning run",
							slog.String("lease_id", lr.LeaseID))
						abandoned = true
						cancel()
						return
					}
					// Transport errors are survivable: the run continues, and
					// if the lease expires meanwhile a late completed row is
					// still a harmless no-op at the coordinator.
				}
			}
		}()
	}

	state, row, errMsg := w.cfg.Runner(runCtx, *lr.Cell)
	close(hbStop)
	cancel()
	wg.Wait()

	if abandoned && state != govern.StateCompleted {
		// A stale failure verdict carries no information the coordinator
		// wants (it already reassigned); only completed rows are worth
		// reporting late.
		return
	}
	if state == govern.StateCompleted && w.failures < w.cfg.InjectFail {
		// Chaos: misreport the completed run as failed. The coordinator
		// re-grants the cell and the rerun's deterministic row merges
		// identically, so within the retry budget nothing downstream
		// changes — except that the failure path, including the
		// flight-recorder dump, actually runs.
		w.failures++
		state, row, errMsg = govern.StateFailed, nil, "injected failure (chaos)"
		w.logc(ctx, slog.LevelError, "lease run failed",
			slog.String("lease_id", lr.LeaseID), slog.String("err", errMsg))
		if w.cfg.Flight != nil && w.cfg.FlightDir != "" {
			if path, err := w.cfg.Flight.DumpToFile(w.cfg.FlightDir, "injected_failure"); err == nil {
				w.logc(ctx, slog.LevelWarn, "flight recorder dumped",
					slog.String("reason", "injected_failure"), slog.String("path", path))
			}
		}
	}
	w.logc(ctx, slog.LevelInfo, "lease finished",
		slog.String("lease_id", lr.LeaseID), slog.String("state", string(state)))
	w.report(ctx, lr, state, row, errMsg)
}

// report delivers a completion, retrying briefly over transport errors;
// a lost report degrades to a lease expiry at the coordinator.
func (w *Worker) report(ctx context.Context, lr LeaseResponse, state govern.State, row []string, errMsg string) {
	req := CompleteRequest{
		LeaseID: lr.LeaseID, Worker: w.cfg.Name, Hash: lr.Hash,
		Status: string(state), Err: errMsg, Row: row,
		TraceID: lr.TraceID,
	}
	sends := 1
	if w.cfg.InjectDupComplete && !w.dupSent && state == govern.StateCompleted {
		w.dupSent = true
		sends = 2
	}
	for s := 0; s < sends; s++ {
		for attempt := 0; attempt < 3; attempt++ {
			var resp CompleteResponse
			if _, err := w.post(ctx, "/v1/complete", req, &resp); err == nil {
				if resp.Duplicate {
					w.logc(ctx, slog.LevelInfo, "lease completion was a duplicate (harmless)",
						slog.String("lease_id", lr.LeaseID))
				}
				break
			} else if ctx.Err() != nil {
				return
			}
			sleepCtx(ctx, 100*time.Millisecond)
		}
	}
}

// sleepCtx sleeps d unless ctx cancels first; false means cancelled.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
