package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// that layer's public entry point. Spans of one request share ReqID;
// Parent is the ID of the span that caused this one (0 for the request's
// root). Times are nanoseconds since the tracer was created.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	ReqID  string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps every finished span in memory until the run ends; nothing
// is written while the benchmark measures. A nil *Tracer records nothing,
// so untraced code paths call it unconditionally.
type Tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []Span
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// ActiveSpan is a span that has started and not yet ended.
type ActiveSpan struct {
	t *Tracer
	s Span
}

// Begin opens a span named layer for request reqID under parent.
func (t *Tracer) Begin(layer, reqID string, parent int64) ActiveSpan {
	if t == nil {
		return ActiveSpan{}
	}
	return ActiveSpan{t: t, s: Span{
		ID:     t.nextID.Add(1),
		Parent: parent,
		Name:   layer,
		ReqID:  reqID,
		Start:  int64(time.Since(t.epoch)),
	}}
}

// ID is the span's identifier (0 when tracing is off), the parent to
// hand to the spans this one causes.
func (a ActiveSpan) ID() int64 { return a.s.ID }

// End closes the span and keeps it.
func (a ActiveSpan) End() {
	if a.t == nil {
		return
	}
	a.s.End = int64(time.Since(a.t.epoch))
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

// Reset drops every span recorded so far (the warm-up's).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// Spans returns a copy of every finished span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteJSONL writes the spans to path, one JSON object per line.
func (t *Tracer) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its child spans cover (children
// that overlap each other are counted once, and any part of a child
// outside its parent is ignored).
func selfTimes(spans []Span) map[int64]int64 {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] <= curHi:
			curHi = max(curHi, iv[1])
		default:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// requestLayers folds a trace into per-request totals: for every request
// (every distinct ReqID with a root span), the summed self time and the
// summed duration of each layer's spans, in milliseconds. A layer a
// request did not cross is absent from that request's maps.
type requestLayers struct {
	Self map[string]float64
	Dur  map[string]float64
}

func perRequest(spans []Span) map[string]requestLayers {
	self := selfTimes(spans)
	out := make(map[string]requestLayers)
	for _, s := range spans {
		r, ok := out[s.ReqID]
		if !ok {
			r = requestLayers{Self: map[string]float64{}, Dur: map[string]float64{}}
			out[s.ReqID] = r
		}
		r.Self[s.Name] += float64(self[s.ID]) / 1e6
		r.Dur[s.Name] += float64(s.End-s.Start) / 1e6
	}
	return out
}

// layerSamples collects, over all requests that crossed layer, the
// per-request self time (self=true) or total span time of that layer.
func layerSamples(reqs map[string]requestLayers, layer string, self bool) []float64 {
	var out []float64
	for _, r := range reqs {
		m := r.Dur
		if self {
			m = r.Self
		}
		if v, ok := m[layer]; ok {
			out = append(out, v)
		}
	}
	return out
}
