package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call from the benchmark into a layer. Spans of one
// cell or session share Group; Parent is the enclosing span's ID (0 for
// a root). Start and End are offsets from the recorder's creation.
type Span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Group  uint64        `json:"group"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing and costs one pointer compare per call, so untraced
// runs go through the same code with tracing off.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []Span
}

// newRecorder returns an empty recorder whose clock starts now.
func newRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// openSpan is a span that has begun and not yet ended.
type openSpan struct {
	id, parent, group uint64
	name              string
	start             time.Duration
}

// ID is the span's identifier, for use as a child's parent.
func (o openSpan) ID() uint64 { return o.id }

// Begin opens a span named name under parent within group.
func (r *Recorder) Begin(name string, parent, group uint64) openSpan {
	if r == nil {
		return openSpan{}
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return openSpan{id: id, parent: parent, group: group, name: name, start: time.Since(r.t0)}
}

// End closes o, keeps it, and returns its duration.
func (r *Recorder) End(o openSpan) time.Duration {
	if r == nil {
		return 0
	}
	end := time.Since(r.t0)
	r.mu.Lock()
	r.spans = append(r.spans, Span{ID: o.id, Parent: o.parent, Group: o.group, Name: o.name, Start: o.start, End: end})
	r.mu.Unlock()
	return end - o.start
}

// Spans returns a copy of every closed span.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes the spans as JSON lines.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
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

// spanTimes is the total and self time of every span sharing a name.
type spanTimes struct {
	Total, Self time.Duration
	Count       int
}

// selfTimes sums, per span name, each span's duration and its self
// time: the duration minus the part of the span's interval that its
// children cover. Children that overlap one another (parallel calls)
// are counted once.
func selfTimes(spans []Span) map[string]spanTimes {
	children := map[uint64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]spanTimes{}
	for _, s := range spans {
		t := out[s.Name]
		t.Count++
		t.Total += s.End - s.Start
		t.Self += s.End - s.Start - covered(s, children[s.ID])
		out[s.Name] = t
	}
	return out
}

// covered returns how much of parent's interval the union of kids
// spans.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return sum + curHi - curLo
}
