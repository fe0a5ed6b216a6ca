package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one bench-side interval around a call into a layer: name, start,
// end, the span that caused it, and the op all spans of one request share.
// Times are nanoseconds since the log was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root of its op
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, so untraced runs pay one nil check per call site.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// liveSpan is an open span; End closes it.
type liveSpan struct {
	log *spanLog
	idx int
	id  int
	op  int
}

// start opens a span under parent (nil for an op's root span, which starts
// a new op).
func (l *spanLog) start(name string, parent *liveSpan) *liveSpan {
	if l == nil {
		return nil
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	s := span{ID: id, Name: name, Start: now}
	if parent != nil {
		s.Parent, s.Op = parent.id, parent.op
	} else {
		s.Op = id
	}
	l.spans = append(l.spans, s)
	return &liveSpan{log: l, idx: id - 1, id: id, op: s.Op}
}

func (s *liveSpan) end() {
	if s == nil {
		return
	}
	now := time.Since(s.log.t0).Nanoseconds()
	s.log.mu.Lock()
	if s.log.spans[s.idx].End == 0 { // first end wins, so `defer sp.end()` may back up an explicit one
		s.log.spans[s.idx].End = now
	}
	s.log.mu.Unlock()
}

// spanTotals is one row of the self-time table.
type spanTotals struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval its direct children cover; overlapping
// children (parallel calls) are merged before subtracting so covered time
// is never counted twice.
func selfTimes(spans []span) []spanTotals {
	type iv struct{ a, b int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	agg := make(map[string]*spanTotals)
	for _, s := range spans {
		if s.End == 0 {
			continue // never closed
		}
		dur := s.End - s.Start
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].a < cs[j].a })
		var covered int64
		cur := iv{-1, -1}
		for _, c := range cs {
			// Clip to the parent: a child that outlives it covers only
			// the shared part.
			if c.a < s.Start {
				c.a = s.Start
			}
			if c.b > s.End {
				c.b = s.End
			}
			if c.b <= c.a {
				continue
			}
			if cur.b < c.a {
				covered += cur.b - cur.a
				cur = c
			} else if c.b > cur.b {
				cur.b = c.b
			}
		}
		covered += cur.b - cur.a
		t := agg[s.Name]
		if t == nil {
			t = &spanTotals{Name: s.Name}
			agg[s.Name] = t
		}
		t.Count++
		t.TotalMS += float64(dur) / 1e6
		t.SelfMS += float64(dur-covered) / 1e6
	}
	out := make([]spanTotals, 0, len(agg))
	for _, t := range agg {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMS > out[j].TotalMS })
	return out
}

// durationsMS returns the duration of every closed span named name.
func (l *spanLog) durationsMS(name string) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name && s.End != 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// spanFile is the document written to out/trace-<workload>.json.
type spanFile struct {
	Workload string       `json:"workload"`
	Seed     uint64       `json:"seed"`
	Totals   []spanTotals `json:"totals"`
	Spans    []span       `json:"spans"`
}

// write saves every span and the per-name totals to path and returns the
// totals.
func (l *spanLog) write(path, workload string, seed uint64) ([]spanTotals, error) {
	l.mu.Lock()
	spans := append([]span(nil), l.spans...)
	l.mu.Unlock()
	totals := selfTimes(spans)
	data, err := json.Marshal(spanFile{Workload: workload, Seed: seed, Totals: totals, Spans: spans})
	if err != nil {
		return nil, err
	}
	return totals, os.WriteFile(path, data, 0o644)
}
