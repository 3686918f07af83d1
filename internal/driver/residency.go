package driver

import (
	"uvmsim/internal/mem"
	"uvmsim/internal/obs"
	"uvmsim/internal/sim"
)

// Ownership classifies who backs a faulted VABlock in a multi-GPU
// system, from the faulting device's point of view.
type Ownership int

// Ownership states.
const (
	// OwnHost: no device owns the block; the fault services from host
	// memory exactly like the single-GPU path (and claims ownership).
	OwnHost Ownership = iota
	// OwnSelf: this device already owns the block.
	OwnSelf
	// OwnPeer: a peer device owns the block; the fault services as a
	// remote mapping over the interconnect fabric instead of a migration.
	OwnPeer
)

// Residency is the driver's view of the shared multi-GPU residency map
// (internal/multigpu). It is nil in single-GPU systems: every call site
// is nil-guarded, so the K=1 pipeline is byte-identical to the
// pre-multi-GPU driver.
type Residency interface {
	// Classify reports who owns the faulted block right now.
	Classify(id mem.VABlockID) Ownership
	// RemoteMap installs remote mappings for every valid page of b in
	// this device's view (marking b.Remote and its pages resident) and
	// registers the device as a remote holder. It returns the number of
	// pages mapped, which prices the PTE writes.
	RemoteMap(b *mem.VABlock) int
	// Claimed records that this device allocated physical backing for b
	// (first touch pins ownership here).
	Claimed(b *mem.VABlock)
	// Released records that this device evicted b: ownership returns to
	// the host and every peer's remote mapping of b is invalidated.
	Released(b *mem.VABlock)
}

// serviceRemote services the current bin when a peer device owns its
// block: instead of migrating pages, the driver installs remote mappings
// over the fabric. A bin whose block is already remote-mapped is stale —
// its faults were raised before the mapping was installed — and costs
// only fixed bookkeeping, mirroring the stale path in migrate.
func (d *Driver) serviceRemote() {
	block := d.space.Block(d.bins[d.cur].block)
	d.stale = block.Remote
	if d.stale {
		d.m.staleBins.Inc(1)
		cost := d.cfg.ServiceFixedPerBlock
		d.chargeSpan(obs.SpanMigrate, cost, 0)
		d.eng.After(cost, d.next.afterRemote)
		return
	}
	pages := d.res.RemoteMap(block)
	block.Touches++
	cost := d.cfg.ServiceFixedPerBlock +
		sim.Duration(pages)*d.cfg.MapPerOp + d.cfg.MembarPerBlock
	d.m.remoteMaps.Inc(1)
	d.chargeSpan(obs.SpanRemoteMap, cost, int64(pages))
	d.servicedSinceReplay++
	d.eng.After(cost, d.next.afterRemote)
}

// afterRemote is serviceRemote's continuation, mirroring afterMap.
func (d *Driver) afterRemote() { d.finishBin(d.stale) }
