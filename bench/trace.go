package bench

import (
	"encoding/json"
	"os"
	"time"

	"repro/internal/sim"
)

// Span is one timed interval of the traced pass: a workload, the replay,
// a campaign row, one scheme's run ("run/<scheme>"), a schedule slot
// ("slot/<scheme>"), the layer suite, or one layer call
// ("layer/<metric>"). Parent is the enclosing span's ID (-1 at the
// root).
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory; WriteFile writes them out when the run
// ends. It is not safe for concurrent use: the traced pass runs on one
// goroutine.
type Tracer struct {
	origin time.Time
	spans  []Span
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{origin: time.Now()} }

// Begin opens a span under parent and returns its ID.
func (t *Tracer) Begin(name string, parent int) int {
	t.spans = append(t.spans, Span{ID: len(t.spans), Parent: parent, Name: name, Start: time.Since(t.origin)})
	return len(t.spans) - 1
}

// End closes a span.
func (t *Tracer) End(id int) { t.spans[id].End = time.Since(t.origin) }

// Durations returns, in milliseconds, the lengths of the spans with the
// given name that descend from span root.
func (t *Tracer) Durations(name string, root int) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && t.within(s, root) {
			out = append(out, float64(s.Dur())/1e6)
		}
	}
	return out
}

// within reports whether s descends from the span with ID root.
func (t *Tracer) within(s Span, root int) bool {
	for p := s.Parent; p >= 0; p = t.spans[p].Parent {
		if p == root {
			return true
		}
	}
	return false
}

// self returns each span's length minus the part its children cover.
func (t *Tracer) self() []time.Duration {
	out := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		out[i] += s.Dur()
		if s.Parent >= 0 {
			out[s.Parent] -= s.Dur()
		}
	}
	return out
}

// SelfTimes sums the self time of the spans descending from root, per
// span name.
func (t *Tracer) SelfTimes(root int) map[string]time.Duration {
	self := t.self()
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		if t.within(s, root) {
			out[s.Name] += self[i]
		}
	}
	return out
}

// WriteFile writes every span, with its self time, as JSON.
func (t *Tracer) WriteFile(path string) error {
	type spanOut struct {
		Span
		SelfNS time.Duration `json:"self_ns"`
	}
	self := t.self()
	out := make([]spanOut, len(t.spans))
	for i, s := range t.spans {
		out[i] = spanOut{s, self[i]}
	}
	b, err := json.Marshal(struct {
		Spans []spanOut `json:"spans"`
	}{out})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanRecorder is the traced pass's sim.Recorder: a sim.Metrics that
// forwards every event and opens a slot span at the first link-state
// event of each slot, which the engine emits before the slot's step
// runs. The slot span ends where the next begins, or at Close.
type spanRecorder struct {
	sim.Metrics
	tr     *Tracer
	parent int
	name   string
	slot   int
	span   int
}

func newSpanRecorder(tr *Tracer, parent int, name string) *spanRecorder {
	return &spanRecorder{tr: tr, parent: parent, name: name, slot: -1, span: -1}
}

// RecordLinkState implements sim.Recorder.
func (r *spanRecorder) RecordLinkState(slot, from, to int, powerGain float64) {
	if slot != r.slot {
		r.Close()
		r.slot = slot
		r.span = r.tr.Begin(r.name, r.parent)
	}
	r.Metrics.RecordLinkState(slot, from, to, powerGain)
}

// Close ends the open slot span.
func (r *spanRecorder) Close() {
	if r.span >= 0 {
		r.tr.End(r.span)
		r.span = -1
	}
}
