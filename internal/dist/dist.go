// Package dist is the crash-tolerant distributed sweep fabric: a
// coordinator that shards sweep cells across N stateless workers using
// lease-based assignment, built so that any process death degrades to
// "cells not yet completed" — never to lost or corrupt results.
//
// The fabric's contract mirrors the single-process sweep exactly:
//
//   - Every cell is handed out under a lease with a deadline; workers
//     renew the lease via heartbeats while the cell runs. An expired
//     lease (worker death, partition, stall) returns the cell to the
//     queue for reassignment after capped exponential backoff.
//   - Each cell carries a retry budget across all its lease grants. A
//     poison cell — one that keeps killing or failing workers — is
//     quarantined and reported after the budget is spent, not retried
//     forever.
//   - Completed cells are deduplicated by their confighash key: a slow
//     worker finishing after its lease was reassigned delivers a
//     harmless no-op (the simulator is deterministic, so both rows are
//     identical bytes).
//   - The coordinator journals every grant, expiry, and terminal
//     outcome through the crash-safe sweep journal, so a coordinator
//     crash resumes mid-sweep with completed rows replayed from disk.
//   - The merged output is assembled in cross-product index order from
//     rendered rows, making it byte-identical to a single-process
//     `-jobs 1` run regardless of worker deaths, restarts, or duplicate
//     completions.
//
// Lease and retry outcomes map onto the govern outcome taxonomy:
// completed/deadline/livelock verdicts from workers are terminal
// exactly as in-process runs are, failed/panicked verdicts and lease
// expiries consume the retry budget, and budget exhaustion yields
// govern.StateQuarantined.
package dist

import (
	"time"

	"uvmsim/internal/cell"
)

// Journal audit statuses written by the coordinator alongside the
// govern terminal states. They are not govern states: on a
// single-process resume they fall through the status switch and the
// cell simply reruns, which is the correct recovery for a cell that was
// only ever leased.
const (
	// StatusLeased records a lease grant (cell handed to a worker).
	StatusLeased = "leased"
	// StatusExpired records a lease deadline passing without completion.
	StatusExpired = "expired"
)

// CellSpec is the lease's cell: cell.Spec, whose JSON is the wire form
// a stateless worker decodes to run the cell and reproduce the
// coordinator's label byte-for-byte.
type CellSpec = cell.Spec

// ---- wire messages ----

// LeaseRequest asks the coordinator for one cell to run.
type LeaseRequest struct {
	// Worker is a self-chosen worker identity, used for audit only.
	Worker string `json:"worker"`
}

// LeaseResponse carries a lease grant, a backoff hint, or the
// end-of-sweep signal.
type LeaseResponse struct {
	// Done tells the worker the sweep has settled; it should exit.
	Done bool `json:"done,omitempty"`
	// WaitMs, when no cell is leasable right now (all leased out or
	// backing off), hints when to poll again.
	WaitMs int64 `json:"wait_ms,omitempty"`

	LeaseID string     `json:"lease_id,omitempty"`
	Cell    *cell.Spec `json:"cell,omitempty"`
	// Index is the cell's cross-product position; Label its replay
	// recipe; Hash its confighash key (the dedup and journal key).
	Index int    `json:"index"`
	Label string `json:"label,omitempty"`
	Hash  string `json:"hash,omitempty"`
	// Attempt counts lease grants for this cell, 1-based.
	Attempt int `json:"attempt,omitempty"`
	// TTLMs is the lease deadline; the worker must renew within it.
	TTLMs int64 `json:"ttl_ms,omitempty"`
	// TraceID is the cell's telemetry trace, derived from the sweep's
	// root trace and stable across lease retries: every attempt at this
	// cell — on any worker — logs under the same ID, and workers forward
	// it to the serve cache tier so one grep walks the whole path.
	TraceID string `json:"trace_id,omitempty"`
}

// RenewRequest is the heartbeat extending a held lease.
type RenewRequest struct {
	LeaseID string `json:"lease_id"`
}

// RenewResponse acknowledges a heartbeat. A renew against an expired or
// reassigned lease answers HTTP 410 instead.
type RenewResponse struct {
	OK bool `json:"ok"`
}

// CompleteRequest reports one cell's terminal outcome. Completion is
// keyed by Hash, not LeaseID: a deterministic row is accepted even from
// a worker whose lease has already expired — it is the same bytes the
// reassigned worker would produce.
type CompleteRequest struct {
	LeaseID string `json:"lease_id,omitempty"`
	Worker  string `json:"worker,omitempty"`
	Hash    string `json:"hash"`
	// Status is the govern.State verdict of the run.
	Status string `json:"status"`
	Err    string `json:"err,omitempty"`
	// Row is the rendered result row for completed cells.
	Row []string `json:"row,omitempty"`
	// TraceID echoes the lease grant's trace, closing the loop in the
	// coordinator's completion log.
	TraceID string `json:"trace_id,omitempty"`
}

// CompleteResponse acknowledges a completion report.
type CompleteResponse struct {
	// Duplicate marks a report for a cell that had already settled; the
	// report was a no-op.
	Duplicate bool `json:"duplicate,omitempty"`
}

// Status is the coordinator's progress snapshot.
type Status struct {
	Total       int `json:"total"`
	Pending     int `json:"pending"`
	Leased      int `json:"leased"`
	Completed   int `json:"completed"`
	Skipped     int `json:"skipped"` // deterministic budget trips
	Quarantined int `json:"quarantined"`
	Reused      int `json:"reused"` // completed rows replayed from the resume journal
}

// Settled reports whether every cell is terminal.
func (st Status) Settled() bool {
	return st.Completed+st.Skipped+st.Quarantined == st.Total
}

// Backoff is the capped exponential reassignment backoff: attempt n
// (1-based count of grants already consumed) waits base<<(n-1), capped.
func Backoff(n int, base, cap time.Duration) time.Duration {
	if n < 1 {
		n = 1
	}
	d := base
	for i := 1; i < n && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	return d
}
