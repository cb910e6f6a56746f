package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"time"

	"clara/internal/budget"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call (the program itself is not instrumented).
type span struct {
	ID, Parent, Op int
	Name           string
	Label          string        // the NF a layer call worked on, if any
	Start, End     time.Duration // since the tracer's origin
	Pkts           int           // packets the call generated, decoded or simulated
	Usage          budget.UsageSnapshot
	AllocBytes     uint64 // heap bytes allocated during the call (allocs=true spans only)
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced replay runs the same code with tracing off.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int // open span IDs; the replay is sequential
	op     int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// beginOp opens an operation's root span; every span until endOp is its
// descendant and carries its op ID.
func (t *tracer) beginOp(name string) {
	if t == nil {
		return
	}
	t.op++
	t.open(name, "")
}

func (t *tracer) endOp() {
	if t != nil {
		t.close(0, nil, 0)
	}
}

func (t *tracer) open(name, label string) {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Label: label, Start: time.Since(t.origin)})
	t.stack = append(t.stack, id)
}

func (t *tracer) close(pkts int, u *budget.Usage, alloc uint64) {
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[id]
	s.End = time.Since(t.origin)
	s.Pkts = pkts
	s.Usage = u.Snapshot(budget.Limits{})
	s.AllocBytes = alloc
}

// call runs fn as a span named name, labelled with the NF it works on. fn
// gets a context carrying a fresh budget.Usage, so the span records the
// steps and events the call consumed, and returns the packet count it
// processed. With allocs set, the span also records heap bytes allocated
// during the call.
func (t *tracer) call(ctx context.Context, name, label string, allocs bool, fn func(ctx context.Context) (int, error)) error {
	if t == nil {
		_, err := fn(ctx)
		return err
	}
	u := &budget.Usage{}
	var before uint64
	if allocs {
		before = heapAllocBytes()
	}
	t.open(name, label)
	pkts, err := fn(budget.WithUsage(ctx, u))
	var alloc uint64
	if allocs {
		alloc = heapAllocBytes() - before
	}
	t.close(pkts, u, alloc)
	return err
}

func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// layerStat aggregates every span of one name.
type layerStat struct {
	Calls      int
	Total      time.Duration // wall time inside the spans
	Self       time.Duration // Total minus time covered by child spans
	P50        time.Duration // median duration per call
	Pkts       int
	Usage      budget.UsageSnapshot
	AllocBytes uint64
}

// layers aggregates spans by name. Op root spans (names starting "op.")
// are included so their self time shows the work outside every layer.
func (t *tracer) layers() map[string]*layerStat {
	child := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			child[p] += t.spans[i].dur()
		}
	}
	out := map[string]*layerStat{}
	durs := map[string][]time.Duration{}
	for i := range t.spans {
		s := &t.spans[i]
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStat{}
			out[s.Name] = ls
		}
		ls.Calls++
		ls.Total += s.dur()
		ls.Self += s.dur() - child[i]
		ls.Pkts += s.Pkts
		ls.AllocBytes += s.AllocBytes
		ls.Usage.SymExecSteps += s.Usage.SymExecSteps
		ls.Usage.SymExecPaths += s.Usage.SymExecPaths
		ls.Usage.SimSteps += s.Usage.SimSteps
		ls.Usage.SimEvents += s.Usage.SimEvents
		durs[s.Name] = append(durs[s.Name], s.dur())
	}
	for name, d := range durs {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		out[name].P50 = d[len(d)/2]
	}
	return out
}

// opWall is the summed wall time of every op root span.
func (t *tracer) opWall() time.Duration {
	var w time.Duration
	for i := range t.spans {
		if t.spans[i].Parent < 0 {
			w += t.spans[i].dur()
		}
	}
	return w
}

// writeSelfTable prints the per-layer self-time table: calls, total and
// self time, median per call, and self time as a share of op wall time.
func (t *tracer) writeSelfTable(w io.Writer) {
	ls := t.layers()
	names := make([]string, 0, len(ls))
	for n := range ls {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return ls[names[i]].Self > ls[names[j]].Self })
	wall := t.opWall()
	fmt.Fprintf(w, "%-20s %7s %12s %12s %12s %7s\n", "span", "calls", "total", "self", "p50/call", "share")
	for _, n := range names {
		s := ls[n]
		share := 0.0
		if wall > 0 {
			share = 100 * float64(s.Self) / float64(wall)
		}
		fmt.Fprintf(w, "%-20s %7d %12s %12s %12s %6.1f%%\n", n, s.Calls,
			s.Total.Round(time.Microsecond), s.Self.Round(time.Microsecond),
			s.P50.Round(time.Microsecond), share)
	}
	fmt.Fprintf(w, "%-20s %7s %12s\n", "op wall", "", wall.Round(time.Microsecond))
}

// chromeEvent mirrors the trace_event entries clara-sim -timeline writes, so
// benchmark spans and simulated NIC hops open in the same viewer.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace_event JSON (process 1) and
// appends nicHops, the trace events of one simulated run's NIC timeline, as
// process 2.
func (t *tracer) writeChrome(w io.Writer, meta map[string]any, nicHops []chromeEvent) error {
	events := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "perfbench host spans"}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]any{"name": "replay"}},
	}
	for i := range t.spans {
		s := &t.spans[i]
		args := map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op}
		if s.Label != "" {
			args["nf"] = s.Label
		}
		if s.Pkts > 0 {
			args["packets"] = s.Pkts
		}
		if s.Usage.SymExecSteps > 0 {
			args["symexec_steps"] = s.Usage.SymExecSteps
			args["symexec_paths"] = s.Usage.SymExecPaths
		}
		if s.Usage.SimSteps > 0 {
			args["sim_steps"] = s.Usage.SimSteps
			args["sim_events"] = s.Usage.SimEvents
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Args: args,
		})
	}
	if len(nicHops) > 0 {
		events = append(events, chromeEvent{Name: "process_name", Ph: "M", Pid: 2,
			Args: map[string]any{"name": "simulated NIC (cycle time)"}})
		for _, e := range nicHops {
			e.Pid = 2
			events = append(events, e)
		}
	}
	doc := struct {
		TraceEvents     []chromeEvent  `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData"`
	}{events, "ns", meta}
	return json.NewEncoder(w).Encode(doc)
}

// readChromeEvents decodes the traceEvents of a clara-sim style timeline.
func readChromeEvents(r io.Reader) ([]chromeEvent, error) {
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode NIC timeline: %w", err)
	}
	return doc.TraceEvents, nil
}
