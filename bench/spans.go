package main

import (
	"encoding/json"
	"io"
	"strings"
	"sync"
	"time"
)

// spans records wall-clock spans around the benchmark's calls into each
// layer. They stay in memory and are written once, after the traced
// phase, as a Chrome trace (load it in Perfetto or chrome://tracing). A
// nil *spans records nothing, which is what the untraced phase passes.
type spans struct {
	t0   time.Time
	mu   sync.Mutex
	list []span
}

// span is one call: name is "<layer>.<call>", lane the goroutine that
// issued it (client or worker), op the operation it belongs to.
type span struct {
	name       string
	lane, op   int
	start, dur time.Duration
}

func newSpans() *spans { return &spans{t0: time.Now()} }

func (s *spans) add(name string, lane, op int, start, end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.list = append(s.list, span{name: name, lane: lane, op: op, start: start.Sub(s.t0), dur: end.Sub(start)})
	s.mu.Unlock()
}

// durationsMs returns the durations of every span called name.
func (s *spans) durationsMs(name string) []float64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for _, sp := range s.list {
		if sp.name == name {
			out = append(out, ms(sp.dur))
		}
	}
	return out
}

// writeChrome writes the spans in the Chrome trace-event format, one
// thread lane per issuing goroutine.
func (s *spans) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	s.mu.Lock()
	events := make([]event, len(s.list))
	for i, sp := range s.list {
		layer, _, _ := strings.Cut(sp.name, ".")
		events[i] = event{
			Name: sp.name, Cat: layer, Ph: "X",
			Ts:  float64(sp.start.Nanoseconds()) / 1e3,
			Dur: float64(sp.dur.Nanoseconds()) / 1e3,
			Pid: 1, Tid: sp.lane, Args: map[string]int{"op": sp.op},
		}
	}
	s.mu.Unlock()
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
