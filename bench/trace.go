package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Span is one timed call across a layer boundary. Spans of one request
// (a visit of one execution) share Req; Parent is the id of the
// enclosing span, 0 at the top. Start and End are nanoseconds since the
// trace began.
type Span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Req    int64   `json:"req"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Counts *Counts `json:"counts,omitempty"`
}

// Dur returns the span's duration in nanoseconds.
func (s Span) Dur() float64 { return float64(s.End - s.Start) }

// Counts are the deterministic counts a call returned, recorded at the
// same boundary as its span: interpreter statistics and analysis
// reports for runs, result sizes for set-up calls.
type Counts struct {
	Steps       uint64 `json:"steps,omitempty"`
	Events      uint64 `json:"events,omitempty"` // interp.Stats.InstrumentedOps
	CheckEvents uint64 `json:"check_events,omitempty"`
	FTChecks    uint64 `json:"ft_checks,omitempty"`
	TraceNodes  uint64 `json:"trace_nodes,omitempty"`
	ICHits      uint64 `json:"ic_hits,omitempty"`
	ICMisses    uint64 `json:"ic_misses,omitempty"`
	Fused       uint64 `json:"fused,omitempty"`
	FPHits      uint64 `json:"fastpath_hits,omitempty"`
	FPSlow      uint64 `json:"fastpath_slow,omitempty"`
	RolledBack  bool   `json:"rolled_back,omitempty"`
	Runs        uint64 `json:"runs,omitempty"`   // profiling executions
	Sites       uint64 `json:"sites,omitempty"`  // instrumentable memory sites
	Elided      uint64 `json:"elided,omitempty"` // of Sites, elided by the static phase
	Size        uint64 `json:"size,omitempty"`   // static slice instructions
}

// Trace keeps spans in memory until the run ends. A nil *Trace records
// nothing, so untraced code passes nil and pays one nil check per span.
// A Trace is used by one goroutine.
type Trace struct {
	t0    time.Time
	spans []Span
}

func newTrace() *Trace { return &Trace{t0: time.Now()} }

// Begin opens a span and returns its id (0 on a nil Trace).
func (t *Trace) Begin(parent, req int64, layer, name string) int64 {
	if t == nil {
		return 0
	}
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	return id
}

// End closes span id and attaches c (nil: no counts).
func (t *Trace) End(id int64, c *Counts) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
	t.spans[id-1].Counts = c
}

// Spans returns the recorded spans.
func (t *Trace) Spans() []Span { return t.spans }

// write stores the spans as one JSON object under path.
func (t *Trace) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"spans": t.Spans()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanSet indexes spans by (layer, name) for metric derivation.
type spanSet map[[2]string][]Span

func indexSpans(spans []Span) spanSet {
	ix := spanSet{}
	for _, s := range spans {
		k := [2]string{s.Layer, s.Name}
		ix[k] = append(ix[k], s)
	}
	return ix
}

// get returns the spans recorded at layer with the given name.
func (ix spanSet) get(layer, name string) []Span { return ix[[2]string{layer, name}] }

// durs returns the durations of the spans at (layer, name).
func (ix spanSet) durs(layer, name string) []float64 {
	ss := ix.get(layer, name)
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.Dur()
	}
	return out
}

// total returns the summed duration of the spans at (layer, name).
func (ix spanSet) total(layer, name string) float64 {
	t := 0.0
	for _, s := range ix.get(layer, name) {
		t += s.Dur()
	}
	return t
}
