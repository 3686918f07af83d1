// Package prefetch wraps the density tree (internal/tree) behind a policy
// interface and adds the alternatives discussed in the paper: disabled
// prefetching, the aggressive 1% threshold that §IV-C reports as rivaling
// explicit transfer for undersubscribed workloads, the adaptive scheme
// sketched in §VI-B, and a stream prefetcher that exploits the
// fault-origin information extension (§VI-B) which the baseline driver
// does not have.
package prefetch

import (
	"fmt"

	"uvmsim/internal/mem"
	"uvmsim/internal/tree"
)

// Context carries everything a policy may consult when planning the fetch
// set for one VABlock within one fault batch.
type Context struct {
	Geom  mem.Geometry
	Block *mem.VABlock
	// Valid is the number of leading pages of the block inside its range.
	Valid int
	// Faulted marks the demanded in-block pages of this batch.
	Faulted *mem.Bitmap
	// FaultSMs maps in-block page index -> originating SM for the
	// fault-origin extension; nil for the baseline driver (source erasure).
	FaultSMs map[int]int
	// Oversubscribed reports whether the allocator is under eviction
	// pressure (used by the adaptive policy).
	Oversubscribed bool
}

// Prefetcher plans which pages to migrate for a faulted VABlock. Plan
// must not retain ctx: the driver reuses one Context for every block.
type Prefetcher interface {
	Name() string
	Plan(ctx *Context) tree.Result
}

// New returns the named policy:
//
//	"none"            — demand paging only
//	"density"         — the driver default (threshold 51, big pages)
//	"aggressive"      — density with threshold 1
//	"adaptive"        — aggressive when undersubscribed, none when evicting
//	"stream"          — per-SM sequential streams (needs fault origin info)
//	"density:<n>"     — density with threshold n (1-99)
func New(name string) (Prefetcher, error) {
	switch name {
	case "none":
		return &None{}, nil
	case "density", "":
		return NewDensity(tree.DefaultThreshold), nil
	case "aggressive":
		return NewDensity(1), nil
	case "adaptive":
		return &Adaptive{Under: NewDensity(1), Over: &None{}}, nil
	case "stream":
		return NewStream(8), nil
	}
	var th int
	if n, err := fmt.Sscanf(name, "density:%d", &th); err == nil && n == 1 {
		if th < 1 || th > 99 {
			return nil, fmt.Errorf("prefetch: threshold %d out of range [1,99]", th)
		}
		return NewDensity(th), nil
	}
	return nil, fmt.Errorf("prefetch: unknown policy %q", name)
}

// demandOnly computes the fetch set containing exactly the non-resident
// demanded pages, using pl's retained scratch (a zero-valued planner
// plans demand-only). Each prefetcher owns its demand planner so
// steady-state planning stays allocation-free.
func demandOnly(pl *tree.Planner, ctx *Context) tree.Result {
	return pl.Plan(ctx.Geom, ctx.Block.Resident, ctx.Faulted, ctx.Valid)
}

// None disables prefetching entirely. The zero value is ready to use;
// the embedded planner scratch materializes on first Plan.
type None struct {
	planner tree.Planner // zero value: threshold 0, big pages off
}

// Name implements Prefetcher.
func (*None) Name() string { return "none" }

// Plan implements Prefetcher.
func (n *None) Plan(ctx *Context) tree.Result { return demandOnly(&n.planner, ctx) }

// Density is the production two-stage prefetcher.
type Density struct {
	planner *tree.Planner
}

// NewDensity returns the density prefetcher with the given threshold
// (percent) and big-page upgrading enabled.
func NewDensity(threshold int) *Density {
	return &Density{planner: tree.NewPlanner(threshold)}
}

// Name implements Prefetcher.
func (d *Density) Name() string { return fmt.Sprintf("density:%d", d.planner.Threshold) }

// Threshold returns the density threshold in percent.
func (d *Density) Threshold() int { return d.planner.Threshold }

// Plan implements Prefetcher.
func (d *Density) Plan(ctx *Context) tree.Result {
	return d.planner.Plan(ctx.Geom, ctx.Block.Resident, ctx.Faulted, ctx.Valid)
}

// Adaptive switches between two policies on the oversubscription signal
// (§VI-B "adaptive prefetching": aggressive under the memory limit,
// conservative once eviction starts).
type Adaptive struct {
	Under Prefetcher // used while memory pressure is absent
	Over  Prefetcher // used under eviction pressure
}

// Name implements Prefetcher.
func (a *Adaptive) Name() string { return "adaptive" }

// Plan implements Prefetcher.
func (a *Adaptive) Plan(ctx *Context) tree.Result {
	if ctx.Oversubscribed {
		return a.Over.Plan(ctx)
	}
	return a.Under.Plan(ctx)
}

// Stream is a classic per-core sequential prefetcher enabled by the
// fault-origin-information extension: each SM has a stream tracker; a
// fault continuing the SM's stream deepens the prefetch distance, a
// non-sequential fault resets it. Without FaultSMs in the context it
// degrades to demand paging, illustrating why such designs are impossible
// under fault source erasure.
type Stream struct {
	maxDepth int
	lastPage map[int]mem.PageID // SM -> last faulted global page
	depth    map[int]int        // SM -> current prefetch depth
	planner  tree.Planner       // demand-only planner with retained scratch
}

// NewStream returns a stream prefetcher with the given maximum depth.
func NewStream(maxDepth int) *Stream {
	if maxDepth < 1 {
		maxDepth = 1
	}
	return &Stream{
		maxDepth: maxDepth,
		lastPage: make(map[int]mem.PageID),
		depth:    make(map[int]int),
	}
}

// Name implements Prefetcher.
func (s *Stream) Name() string { return fmt.Sprintf("stream:%d", s.maxDepth) }

// Plan implements Prefetcher.
func (s *Stream) Plan(ctx *Context) tree.Result {
	res := demandOnly(&s.planner, ctx)
	if ctx.FaultSMs == nil {
		return res // source erasure: nothing to correlate
	}
	first := ctx.Geom.FirstPage(ctx.Block.ID)
	extra := 0
	ctx.Faulted.ForEachSet(func(idx int) {
		if idx >= ctx.Valid {
			return
		}
		sm, ok := ctx.FaultSMs[idx]
		if !ok {
			return
		}
		page := first + mem.PageID(idx)
		if last, seen := s.lastPage[sm]; seen && page == last+1 {
			if s.depth[sm] < s.maxDepth {
				s.depth[sm]++
			}
		} else {
			s.depth[sm] = 1
		}
		s.lastPage[sm] = page
		for k := 1; k <= s.depth[sm]; k++ {
			next := idx + k
			if next >= ctx.Valid {
				break
			}
			if !ctx.Block.Resident.Get(next) && res.Fetch.Set(next) {
				extra++
			}
		}
	})
	res.Prefetched += extra
	return res
}

// Reset clears stream state between kernels.
func (s *Stream) Reset() {
	s.lastPage = make(map[int]mem.PageID)
	s.depth = make(map[int]int)
}
