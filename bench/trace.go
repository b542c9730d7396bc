package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory and writes them out when
// the run ends. The spans are recorded from the harness's side of each layer
// boundary: around calls into a layer, or laid out from the records the
// program's own sinks deliver. A nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	id, parent int
	name       string
	op         int
	start, end time.Time
}

// rootSpan is the id of the run-wide span every other span descends from.
const rootSpan = 1

// newTracer starts a trace whose root span is open until finish.
func newTracer() *tracer {
	now := time.Now()
	return &tracer{t0: now, spans: []span{{id: rootSpan, name: "run", start: now, end: now}}}
}

// finish closes the root span.
func (t *tracer) finish() {
	t.mu.Lock()
	t.spans[0].end = time.Now()
	t.mu.Unlock()
}

// add records a finished span and returns its id (0 on a nil tracer). parent
// is the id of the span that caused it, 0 for a root. Spans of one step or
// request share op.
func (t *tracer) add(parent int, name string, op int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	if end.Before(start) {
		end = start
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id, parent, name, op, start, end})
	return id
}

// child records a span clipped to its parent's interval, so that a parent's
// self time can never come out negative.
func (t *tracer) child(parent int, pStart, pEnd time.Time, name string, op int, start, end time.Time) int {
	if start.Before(pStart) {
		start = pStart
	}
	if end.After(pEnd) {
		end = pEnd
	}
	return t.add(parent, name, op, start, end)
}

// time runs fn inside a span.
func (t *tracer) time(parent int, name string, op int, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	return t.add(parent, name, op, start, end), end.Sub(start)
}

type spanJSON struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Op      int    `json:"op"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	SelfUS  int64  `json:"self_us"`
}

// write emits one JSON object per span. A span's self time is its duration
// minus the part of its interval that its children cover.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		kids := children[s.id]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].start.Before(t.spans[kids[b]].start) })
		covered := time.Duration(0)
		edge := s.start
		for _, k := range kids {
			c := t.spans[k]
			lo, hi := c.start, c.end
			if lo.Before(edge) {
				lo = edge
			}
			if hi.After(s.end) {
				hi = s.end
			}
			if hi.After(lo) {
				covered += hi.Sub(lo)
				edge = hi
			}
		}
		err := enc.Encode(spanJSON{
			ID: s.id, Parent: s.parent, Name: s.name, Op: s.op,
			StartUS: s.start.Sub(t.t0).Microseconds(),
			EndUS:   s.end.Sub(t.t0).Microseconds(),
			SelfUS:  (s.end.Sub(s.start) - covered).Microseconds(),
		})
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
