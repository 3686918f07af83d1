package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// The host-time split charges every CPU sample to exactly one category,
// so the self shares of one profile sum to 100%:
//
//   - map: the non-module frames at the top of the stack include Go map
//     code (lookups, inserts, hashing), wherever the map lives;
//   - memmove: the leaf is memmove or memclr (slice growth, copying);
//   - json, net_http: the non-module frames at the top of the stack
//     include encoding/json or the net/http stack;
//   - otherwise the nearest module frame above the leaf, so runtime and
//     standard-library leaves (allocation, GC assist) are charged to the
//     simulator package that caused them;
//   - gc: no module frame at all (GC workers, the scheduler).
//
// A module is a simulator package, or a group of them, named after the
// layer it implements; "other" holds the remaining simulator packages and
// the benchmark's own frames (package main).

// hostModules lists the categories in report order.
var hostModules = []string{
	"workloads", "mem", "multigpu", "driver", "faultbuf", "tree", "evict", "xfer",
	"gpusim", "sim", "inject", "obs", "core", "exp", "serve", "telemetry", "dist",
	"map", "memmove", "json", "net_http", "gc", "other",
}

// packageModule maps a simulator package (relative to uvmsim/internal/)
// onto its layer; packages not listed are "other".
var packageModule = map[string]string{
	"workloads": "workloads",
	"mem":       "mem",
	"multigpu":  "multigpu",
	"driver":    "driver",
	"pma":       "driver",
	"faultbuf":  "faultbuf",
	"tree":      "tree",
	"prefetch":  "tree",
	"evict":     "evict",
	"thrash":    "evict",
	"xfer":      "xfer",
	"gpusim":    "gpusim",
	"sim":       "sim",
	"inject":    "inject",
	"obs":       "obs",
	"core":      "core",
	"exp":       "exp",
	"sweep":     "exp",
	"parallel":  "exp",
	"serve":     "serve",
	"telemetry": "telemetry",
	"dist":      "dist",
	"journal":   "dist",
}

// traceSample is one distinct stack from `go tool pprof -traces`: its
// CPU time and its frames, leaf first.
type traceSample struct {
	value  time.Duration
	frames []string
}

// parseTraces reads the text `go tool pprof -traces` prints: blocks
// separated by dashed lines, each opening with the sample value and the
// leaf frame, followed by one caller per line.
func parseTraces(r io.Reader) ([]traceSample, error) {
	var out []traceSample
	var cur *traceSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "-----------+"):
			cur = nil
		case trimmed == "":
		case cur == nil && line[0] == ' ':
			// "<value>   <leaf frame>" opens a block.
			fields := strings.Fields(trimmed)
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: malformed sample line %q", line)
			}
			v, err := parsePprofDuration(fields[0])
			if err != nil {
				return nil, err
			}
			out = append(out, traceSample{value: v, frames: []string{frameName(fields[1:])}})
			cur = &out[len(out)-1]
		case cur != nil:
			cur.frames = append(cur.frames, frameName(strings.Fields(trimmed)))
		}
	}
	return out, sc.Err()
}

// frameName drops pprof's " (inline)" marker from a frame line's fields.
func frameName(fields []string) string {
	if n := len(fields); n > 1 && fields[n-1] == "(inline)" {
		fields = fields[:n-1]
	}
	return strings.Join(fields, " ")
}

// parsePprofDuration reads pprof's sample values ("10ms", "1.20s").
func parsePprofDuration(s string) (time.Duration, error) {
	units := []struct {
		suffix string
		unit   time.Duration
	}{{"ns", time.Nanosecond}, {"us", time.Microsecond}, {"µs", time.Microsecond}, {"ms", time.Millisecond}, {"s", time.Second}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			f, err := strconv.ParseFloat(num, 64)
			if err != nil {
				break
			}
			return time.Duration(f * float64(u.unit)), nil
		}
	}
	return 0, fmt.Errorf("pprof traces: bad sample value %q", s)
}

// framePackage returns a frame's import path: the part before the first
// dot after the last slash, ignoring generic type arguments.
func framePackage(frame string) string {
	if i := strings.IndexByte(frame, '['); i >= 0 {
		frame = frame[:i]
	}
	slash := strings.LastIndexByte(frame, '/')
	if dot := strings.IndexByte(frame[slash+1:], '.'); dot >= 0 {
		return frame[:slash+1+dot]
	}
	return frame
}

// moduleOf returns the layer of a frame, or "" for runtime and
// standard-library frames.
func moduleOf(frame string) string {
	pkg := framePackage(frame)
	if pkg == "main" {
		return "other"
	}
	rest, ok := strings.CutPrefix(pkg, "uvmsim/internal/")
	if !ok {
		if strings.HasPrefix(pkg, "uvmsim") {
			return "other"
		}
		return ""
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i] // serve/client is part of serve
	}
	if m, ok := packageModule[rest]; ok {
		return m
	}
	return "other"
}

func isMapFrame(f string) bool {
	for _, p := range []string{"runtime.mapaccess", "runtime.mapassign", "runtime.mapdelete",
		"runtime.mapiter", "runtime.memhash", "runtime.strhash", "runtime.aeshash", "internal/runtime/maps."} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

func isMemmoveFrame(f string) bool {
	return strings.HasPrefix(f, "runtime.memmove") || strings.HasPrefix(f, "runtime.memclr")
}

func isJSONFrame(f string) bool { return framePackage(f) == "encoding/json" }

func isNetFrame(f string) bool {
	pkg := framePackage(f)
	return pkg == "net" || strings.HasPrefix(pkg, "net/")
}

func isGCFrame(f string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.markroot", "runtime.scanobject", "runtime.sweepone"} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// category charges one stack to its self-time category.
func category(frames []string) string {
	top := frames // the non-module frames above the nearest module frame
	owner := "gc"
	for i, f := range frames {
		if m := moduleOf(f); m != "" {
			top, owner = frames[:i], m
			break
		}
	}
	has := func(pred func(string) bool) bool {
		for _, f := range top {
			if pred(f) {
				return true
			}
		}
		return false
	}
	switch {
	case has(isMapFrame):
		return "map"
	case len(frames) > 0 && isMemmoveFrame(frames[0]):
		return "memmove"
	case has(isJSONFrame):
		return "json"
	case has(isNetFrame):
		return "net_http"
	}
	return owner
}

// moduleShare is one category's share of all CPU samples, in percent:
// Self counts samples charged to it, Cum samples it appears in at all.
type moduleShare struct {
	Self, Cum float64
}

// splitModules reduces parsed samples to per-category shares. A
// category is counted at most once per stack in Cum, so recursion does
// not inflate it.
func splitModules(samples []traceSample) map[string]moduleShare {
	var total time.Duration
	self := map[string]time.Duration{}
	cum := map[string]time.Duration{}
	for _, s := range samples {
		total += s.value
		self[category(s.frames)] += s.value
		seen := map[string]bool{}
		for _, f := range s.frames {
			for _, m := range frameCategories(f) {
				if !seen[m] {
					seen[m] = true
					cum[m] += s.value
				}
			}
		}
	}
	out := make(map[string]moduleShare, len(hostModules))
	for _, m := range hostModules {
		if total > 0 {
			out[m] = moduleShare{
				Self: 100 * float64(self[m]) / float64(total),
				Cum:  100 * float64(cum[m]) / float64(total),
			}
		} else {
			out[m] = moduleShare{}
		}
	}
	return out
}

// frameCategories lists every category one frame belongs to for Cum.
func frameCategories(f string) []string {
	var cs []string
	if m := moduleOf(f); m != "" {
		cs = append(cs, m)
	}
	for _, c := range []struct {
		name string
		is   func(string) bool
	}{{"map", isMapFrame}, {"memmove", isMemmoveFrame}, {"json", isJSONFrame}, {"net_http", isNetFrame}, {"gc", isGCFrame}} {
		if c.is(f) {
			cs = append(cs, c.name)
		}
	}
	return cs
}

// profileSplit runs `go tool pprof -traces` on a CPU profile and reduces
// it to per-category shares.
func profileSplit(profile string) (map[string]moduleShare, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", profile, err)
	}
	samples, err := parseTraces(strings.NewReader(string(out)))
	if err != nil {
		return nil, err
	}
	return splitModules(samples), nil
}

// writeModuleTable renders the shares as the per-module table the traced
// run leaves beside its Chrome trace.
func writeModuleTable(w io.Writer, shares map[string]moduleShare) error {
	if _, err := fmt.Fprintf(w, "%-10s %8s %8s\n", "module", "self%", "cum%"); err != nil {
		return err
	}
	var sum float64
	for _, m := range hostModules {
		sum += shares[m].Self
		if _, err := fmt.Fprintf(w, "%-10s %8.2f %8.2f\n", m, shares[m].Self, shares[m].Cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-10s %8.2f\n", "total", sum)
	return err
}
