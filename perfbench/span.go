package main

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program,
// in host nanoseconds since the log was opened.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Req    uint64 `json:"req,omitempty"` // request ID; 0 outside a request
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog keeps the benchmark's spans in memory until the run ends. A nil
// log records nothing, so the untraced pass pays one nil check per call.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil log).
func (l *spanLog) begin(name string, parent int, req uint64) int {
	if l == nil {
		return -1
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return id
}

// end closes the span opened by begin.
func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id].End = now
	l.mu.Unlock()
}

// layerTime is the aggregate of every span with one name.
type layerTime struct {
	Name  string
	Count int
	Total int64 // ns
	Self  int64 // ns not covered by child spans
}

// selfTimes aggregates the spans by name. A span's self time is its
// duration minus the part of its interval its child spans cover (children
// may overlap each other, so their union is subtracted, not their sum).
// It fails when a span was never closed or a child reaches outside its
// parent.
func selfTimes(spans []span) ([]layerTime, error) {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) never closed", s.ID, s.Name)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				return nil, fmt.Errorf("span %d (%s) [%d,%d] exceeds its parent %d (%s) [%d,%d]",
					s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
			}
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := make(map[string]*layerTime)
	for _, s := range spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		lt.Count++
		lt.Total += s.dur()
		lt.Self += s.dur() - covered(children[s.ID])
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out, nil
}

// covered returns the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	lo, hi := spans[0].Start, spans[0].End
	for _, s := range spans[1:] {
		if s.Start > hi {
			total += hi - lo
			lo, hi = s.Start, s.End
			continue
		}
		if s.End > hi {
			hi = s.End
		}
	}
	return total + hi - lo
}

// byName returns the count and total duration (ns) of the spans with the
// name and, when parents are given, a parent with one of those names.
func (l *spanLog) byName(name string, parents ...string) (int, int64) {
	n, total := 0, int64(0)
	for _, s := range l.spans {
		if s.Name != name {
			continue
		}
		if len(parents) > 0 && (s.Parent < 0 || !slices.Contains(parents, l.spans[s.Parent].Name)) {
			continue
		}
		n++
		total += s.dur()
	}
	return n, total
}

// write emits the spans as JSON, one array.
func (l *spanLog) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(l.spans)
}
