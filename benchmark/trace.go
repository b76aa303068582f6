package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Parent is the id of the
// span that caused it (0 for a root); spans of one session share Session
// (0 for set-up and probe spans).
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Session int    `json:"session"`
	Program string `json:"program,omitempty"` // set on session roots
}

func (s span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so set-up and session code calls it unconditionally and the
// untraced run pays one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent, session int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, StartNs: now, Parent: parent, Session: session})
	return len(t.spans)
}

// startSession opens the root span of one traced session of program.
func (t *tracer) startSession(program string, parent, session int) int {
	id := t.start("session", parent, session)
	t.mu.Lock()
	t.spans[id-1].Program = program
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the lengths in ms of every span called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// selfTimes returns each span's self time in ns: its duration minus the
// part of its interval that its direct children cover. Children may
// overlap each other (two clients under one root), so the covered part is
// the union of their intervals clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	kids := map[int][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.StartNs, s.EndNs})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered int64
		cur := s.StartNs
		for _, k := range ivs {
			lo, hi := max(k.lo, cur), min(k.hi, s.EndNs)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// traceFile is what <workload>.trace.json holds: the spans, and their
// self times summed by span name so a reader sees at a glance where the
// run's wall time went.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	SelfMs   map[string]float64 `json:"self_ms"`
	Spans    []span             `json:"spans"`
}

func newTraceFile(workload string, seed uint64, spans []span) traceFile {
	tf := traceFile{Workload: workload, Seed: seed, SelfMs: map[string]float64{}, Spans: spans}
	for id, ns := range selfTimes(spans) {
		tf.SelfMs[spans[id-1].Name] += float64(ns) / 1e6
	}
	return tf
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
