package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one slot or one advance
// share a trace id; Parent is the id of the span that caused this one
// (0 for a root).
type span struct {
	Trace  int64              `json:"trace"`
	ID     int64              `json:"id"`
	Parent int64              `json:"parent"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span now and returns its id (0 on a nil recorder).
func (r *recorder) begin(trace, parent int64, name string) int64 {
	if r == nil {
		return 0
	}
	return r.beginAt(trace, parent, name, time.Now())
}

// beginAt opens a span that started at a given time, such as an advance
// timed from when it was due.
func (r *recorder) beginAt(trace, parent int64, name string, at time.Time) int64 {
	if r == nil {
		return 0
	}
	start := at.Sub(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans)) + 1
	r.spans = append(r.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start})
	return id
}

// end closes span id and attaches attrs to it.
func (r *recorder) end(id int64, attrs map[string]float64) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	s.Attrs = attrs
}

// closed returns a copy of every finished span.
func (r *recorder) closed() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeJSONL writes one span per line.
func writeJSONL(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// selfTimes returns each span's self time in nanoseconds, keyed by span
// id: its duration minus the part of its interval covered by the union
// of its children's intervals (children may overlap one another).
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered := int64(0)
		curStart, curEnd := int64(0), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > curStart {
					covered += curEnd - curStart
				}
				curStart, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > curStart {
			covered += curEnd - curStart
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfByName groups self times (in ms) by span name.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(self[s.ID])/1e6)
	}
	return out
}
