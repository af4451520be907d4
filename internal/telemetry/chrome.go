package telemetry

import (
	"encoding/json"
	"fmt"
	"io"

	"relquery/internal/obs"
)

// chromeEvent is one entry of the Chrome trace-event format's
// traceEvents array (the JSON Object Format, as consumed by Perfetto and
// chrome://tracing). Only the event kinds this exporter emits are
// modeled: "X" complete events and "M" metadata.
type chromeEvent struct {
	Name string `json:"name"`
	// Ph is the event phase: "X" (complete) or "M" (metadata).
	Ph string `json:"ph"`
	// Ts is the start timestamp in microseconds.
	Ts float64 `json:"ts"`
	// Dur is the duration in microseconds (complete events only).
	Dur float64 `json:"dur,omitempty"`
	Pid int     `json:"pid"`
	Tid int     `json:"tid"`
	// Args carries the span's observability fields for the UI's detail
	// pane.
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports span trees as Chrome trace-event JSON. Each
// evaluation becomes one "process" (pid = its index, newest last) named
// after its root operator; each span becomes an "X" complete event whose
// track (tid) is its tree depth, so the expression tree reads as a flame
// graph per evaluation.
//
// Spans recorded by Begin carry absolute start times, which are
// normalized against the earliest start in the batch so evaluations sit
// on one shared timeline. Spans that never began — cache hits, or traces
// serialized before StartNanos existed — are laid out synthetically:
// start of parent, shifted past earlier siblings' durations.
func WriteChromeTrace(w io.Writer, traces []*obs.Trace) error {
	out := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}

	base := int64(0)
	for _, t := range traces {
		if t == nil {
			continue
		}
		for _, root := range t.Roots {
			walkSpans(root, func(sp *obs.Span) {
				if sp.StartNanos > 0 && (base == 0 || sp.StartNanos < base) {
					base = sp.StartNanos
				}
			})
		}
	}

	for i, t := range traces {
		if t == nil {
			continue
		}
		pid := i + 1
		name := fmt.Sprintf("eval %d", pid)
		if root := t.Root(); root != nil {
			name = fmt.Sprintf("eval %d: %s %s", pid, root.Op, root.Label)
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name},
		})
		for _, root := range t.Roots {
			emitSpan(&out.TraceEvents, root, pid, 1, base, 0)
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// emitSpan appends sp and its subtree as complete events. fallbackTs is
// the synthetic start (µs) used when the span has no recorded absolute
// start.
func emitSpan(events *[]chromeEvent, sp *obs.Span, pid, depth int, base int64, fallbackTs float64) {
	if sp == nil {
		return
	}
	ts := fallbackTs
	if sp.StartNanos > 0 {
		ts = float64(sp.StartNanos-base) / 1e3
	}
	ev := chromeEvent{
		Name: spanName(sp),
		Ph:   "X",
		Ts:   ts,
		Dur:  float64(sp.WallNanos) / 1e3,
		Pid:  pid,
		Tid:  depth,
		Args: spanArgs(sp),
	}
	*events = append(*events, ev)
	childTs := ts
	for _, c := range sp.Children {
		emitSpan(events, c, pid, depth+1, base, childTs)
		childTs += float64(c.WallNanos) / 1e3
	}
}

func spanName(sp *obs.Span) string {
	if sp.Label == "" {
		return sp.Op
	}
	return sp.Op + " " + sp.Label
}

// spanArgs projects a span's observability fields into the event's args,
// omitting zero values so the detail pane stays readable.
func spanArgs(sp *obs.Span) map[string]any {
	args := map[string]any{obs.FieldOutputRows: sp.OutputRows}
	if sp.SchemeWidth > 0 {
		args[obs.FieldSchemeWidth] = sp.SchemeWidth
	}
	if len(sp.InputRows) > 0 {
		args[obs.FieldInputRows] = sp.InputRows
	}
	if sp.Algorithm != "" {
		args[obs.FieldAlgorithm] = sp.Algorithm
	}
	if sp.Cache != "" {
		args[obs.FieldCache] = sp.Cache
	}
	if sp.AGMBound > 0 {
		args[obs.FieldAGMBound] = sp.AGMBound
	}
	if sp.MaxIntermediate > 0 {
		args[obs.FieldMaxIntermediate] = sp.MaxIntermediate
	}
	if sp.Candidates > 0 {
		args[obs.FieldCandidates] = sp.Candidates
	}
	if sp.Intersections > 0 {
		args[obs.FieldIntersections] = sp.Intersections
	}
	if sp.Structure != "" {
		args[obs.FieldStructure] = sp.Structure
	}
	if sp.Semijoins > 0 {
		args[obs.FieldSemijoins] = sp.Semijoins
	}
	if sp.ReducedRows > 0 {
		args[obs.FieldReducedRows] = sp.ReducedRows
	}
	if sp.Plan != "" {
		args[obs.FieldPlan] = sp.Plan
	}
	if sp.Err != "" {
		args[obs.FieldError] = sp.Err
	}
	return args
}

func walkSpans(sp *obs.Span, f func(*obs.Span)) {
	if sp == nil {
		return
	}
	f(sp)
	for _, c := range sp.Children {
		walkSpans(c, f)
	}
}
