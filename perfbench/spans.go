package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span is one host-time interval the traced replica records around a
// call into a layer. Host time varies between runs, so spans are kept
// apart from the program's deterministic modeled-timeline exports.
type Span struct {
	Name string
	// Parent is the index of the enclosing span, -1 at the top level.
	Parent int
	// Cycle is the 1-based cycle the span belongs to, 0 outside cycles.
	Cycle int
	// Start and Dur are nanoseconds since the run started.
	Start, Dur int64
	// Alloc is the heap bytes allocated while the span was open.
	Alloc int64
}

// tracer keeps the spans of one run in memory.
type tracer struct {
	t0    time.Time
	cycle int
	spans []Span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	alloc := -int64(heapAllocBytes())
	t.spans = append(t.spans, Span{Name: name, Parent: parent, Cycle: t.cycle,
		Start: time.Since(t.t0).Nanoseconds(), Alloc: alloc})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	s := &t.spans[id]
	s.Dur = time.Since(t.t0).Nanoseconds() - s.Start
	s.Alloc += int64(heapAllocBytes())
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %q closed out of order", s.Name))
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// seconds is the summed duration of every span with the given name.
func seconds(spans []Span, name string) float64 {
	var ns int64
	for _, s := range spans {
		if s.Name == name {
			ns += s.Dur
		}
	}
	return float64(ns) / 1e9
}

// allocMB is the summed heap allocation of every span with the given
// name, in MB.
func allocMB(spans []Span, name string) float64 {
	var b int64
	for _, s := range spans {
		if s.Name == name {
			b += s.Alloc
		}
	}
	return float64(b) / 1e6
}

// selfSeconds is the summed duration of the named spans minus the part
// covered by their direct children.
func selfSeconds(spans []Span, name string) float64 {
	var ns int64
	for i, s := range spans {
		if s.Name != name {
			continue
		}
		ns += s.Dur
		for _, c := range spans[i+1:] {
			if c.Parent == i {
				ns -= c.Dur
			}
		}
	}
	return float64(ns) / 1e9
}

// traceEvent is one Chrome trace-event record ("X" complete events and
// "M" metadata), the format Perfetto and chrome://tracing open.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeSpans writes the spans of every traced run to path as one Chrome
// trace-event file, one process track per run, labeled as host time.
func writeSpans(path string, runs []Result) error {
	var evs []traceEvent
	for pid, r := range runs {
		evs = append(evs, traceEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": fmt.Sprintf("%s inner %d workers %d (host time, varies between runs)",
				r.Workload, r.Inner, r.Workers)}})
		for _, s := range r.Spans {
			evs = append(evs, traceEvent{Name: s.Name, Ph: "X", Pid: pid,
				Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3,
				Args: map[string]any{"cycle": s.Cycle, "alloc_bytes": s.Alloc}})
		}
	}
	doc := map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData": map[string]string{
			"clock": "host wall time, measured around calls from outside the program; varies between runs",
		},
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
