package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	flood "flood"
)

// span is one layer call as seen from the harness. Parent is the index of
// the span that caused it, -1 for a root; spans of one operation share Req.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced runs call the same code.
type tracer struct {
	t0      time.Time
	spans   []span
	dropped int
}

// maxSpans bounds the trace file (about 10 MB); lookup_sql alone would
// produce two million spans. The per-layer metrics are summed as the run
// goes and do not depend on the cap.
const maxSpans = 100_000

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, maxSpans)}
}

// add records a finished span and returns its index for use as a parent.
func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	if len(t.spans) == maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name, parent, req, int64(start.Sub(t.t0)), int64(end.Sub(t.t0))})
	return len(t.spans) - 1
}

// addEngine records one engine call and, under it, the three phases the
// returned Stats times (the paper's IT = project + refine, and ST). The
// program reports durations, not instants, so the children are laid end to
// end from the call's start; what is left of the parent is the facade's
// self time.
func (t *tracer) addEngine(parent, req int, start, end time.Time, st flood.Stats) {
	if t == nil {
		return
	}
	call := t.add("flood.call", parent, req, start, end)
	if call < 0 {
		return
	}
	at := start
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{{"core.project", st.ProjectTime}, {"core.refine", st.RefineTime}, {"query.scan", st.ScanTime}} {
		t.add(ph.name, call, req, at, at.Add(ph.d))
		at = at.Add(ph.d)
	}
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration)
	if t == nil {
		return self
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return self
}

// write stores the spans and their self times under out/.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	selfUS := make(map[string]float64)
	for name, d := range t.selfTimes() {
		selfUS[name] = float64(d) / 1e3
	}
	body, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Dropped  int                `json:"spans_dropped_after_cap"`
		SelfUS   map[string]float64 `json:"self_time_us"`
		Spans    []span             `json:"spans"`
	}{workload, seed, t.dropped, selfUS, t.spans})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, body, 0o644)
}
