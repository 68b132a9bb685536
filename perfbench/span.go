package main

import (
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Spans of one assembly or job share a Run id; Parent is the id of the span
// whose call caused this one (0 for a run's root).
type span struct {
	ID     int
	Parent int
	Run    int
	Name   string
	Layer  string
	Start  time.Duration // since the recorder's epoch
	End    time.Duration // 0 while open
}

// recorder keeps the traced run's spans in memory until the benchmark ends.
// The benchmark is a single closed-loop client, so one goroutine records;
// the recorder is not safe for concurrent use. A nil recorder records
// nothing, which is how untraced runs stay free of tracing cost.
type recorder struct {
	epoch time.Time
	spans []span
	runs  int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newRun returns a fresh run id (0 on a nil recorder).
func (r *recorder) newRun() int {
	if r == nil {
		return 0
	}
	r.runs++
	return r.runs
}

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(run, parent int, layer, name string) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: run, Name: name, Layer: layer, Start: time.Since(r.epoch)})
	return id
}

// end closes span id and returns its duration (0 on a nil recorder).
func (r *recorder) end(id int) time.Duration {
	if r == nil || id == 0 {
		return 0
	}
	s := &r.spans[id-1]
	s.End = time.Since(r.epoch)
	return s.End - s.Start
}

// selfTime sums, per layer, each span's duration minus the part of its
// interval that its child spans cover: the time a layer spent in its own
// code rather than in the calls it made.
func (r *recorder) selfTime() map[string]time.Duration {
	if r == nil {
		return nil
	}
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range r.spans {
		out[s.Layer] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	kids = slices.Clone(kids)
	slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	var total, reach time.Duration
	reach = parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, reach), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return total
}

// writeFile stores the spans as Chrome trace-event JSON (loadable in
// ui.perfetto.dev: one process per run, spans nested by time) with the
// run's stamp, result and per-layer self times under otherData.
func (r *recorder) writeFile(path string, other map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	doc := struct {
		TraceEvents []event        `json:"traceEvents"`
		OtherData   map[string]any `json:"otherData"`
	}{TraceEvents: []event{}, OtherData: other}
	if r != nil {
		for _, s := range r.spans {
			doc.TraceEvents = append(doc.TraceEvents, event{
				Name: s.Name, Cat: s.Layer, Ph: "X",
				Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				PID: s.Run, Args: map[string]int{"id": s.ID, "parent": s.Parent, "run": s.Run},
			})
		}
		self := map[string]float64{}
		for layer, d := range r.selfTime() {
			self[layer] = float64(d) / float64(time.Millisecond)
		}
		doc.OtherData["self_ms"] = self
	}
	blob, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
