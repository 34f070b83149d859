package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Parent is the index of the span
// that caused it (-1 for a root) and Op groups the spans of one request
// or mutation. Times are nanoseconds since the run started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans in memory until the run ends. A tracer that is off
// records nothing; begin then costs one atomic load.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	ops   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(on)
	return t
}

// op returns a fresh operation ID (0 while tracing is off).
func (t *tracer) op() int64 {
	if !t.on.Load() {
		return 0
	}
	return t.ops.Add(1)
}

// begin opens a span and returns its ID, -1 while tracing is off.
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if !t.on.Load() {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	t.mu.Unlock()
	return id
}

// end closes span id; -1 is ignored.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerTime is one span name's totals: how many spans, their summed
// duration, and their summed self time (duration minus the part of it
// that child spans cover).
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes aggregates the closed spans by name.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int32][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	agg := map[string]*layerTime{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		self := dur - covered(kids[int32(i)], s.Start, s.End)
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		lt.Count++
		lt.TotalMs += float64(dur) / 1e6
		lt.SelfMs += float64(self) / 1e6
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of [lo, hi] the intervals cover, counting
// overlaps once.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// write dumps every span and the per-name self times as JSON.
func (t *tracer) write(path string) error {
	layers := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Layers []layerTime `json:"layers"`
		Spans  []span      `json:"spans"`
	}{layers, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
