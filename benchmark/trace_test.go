package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "session", StartNs: 0, EndNs: 100},
		{ID: 2, Name: "negotiate", StartNs: 5, EndNs: 15, Parent: 1},
		{ID: 3, Name: "evaluate", StartNs: 20, EndNs: 90, Parent: 1},
		{ID: 4, Name: "ot", StartNs: 25, EndNs: 45, Parent: 3},
		// Two concurrent children overlap: the covered part is their union.
		{ID: 5, Name: "root", StartNs: 0, EndNs: 50},
		{ID: 6, Name: "a", StartNs: 10, EndNs: 30, Parent: 5},
		{ID: 7, Name: "b", StartNs: 20, EndNs: 40, Parent: 5},
		// A child that outlives its parent covers only the shared part.
		{ID: 8, Name: "short", StartNs: 0, EndNs: 10},
		{ID: 9, Name: "late", StartNs: 5, EndNs: 25, Parent: 8},
		// A child nested inside a sibling adds nothing to the union.
		{ID: 10, Name: "outer", StartNs: 0, EndNs: 100},
		{ID: 11, Name: "big", StartNs: 10, EndNs: 90, Parent: 10},
		{ID: 12, Name: "small", StartNs: 20, EndNs: 30, Parent: 10},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1: 20, // 100 - (10 + 70)
		2: 10, 3: 50, 4: 20,
		5: 20, // 50 - union[10,40]
		6: 20, 7: 20,
		8: 5, 9: 20,
		10: 20, 11: 80, 12: 10,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d (%s) = %d, want %d", id, spans[id-1].Name, self[id], want)
		}
	}
}

func TestTracer(t *testing.T) {
	var off *tracer
	if id := off.start("x", 0, 0); id != 0 {
		t.Errorf("nil tracer handed out span %d", id)
	}
	off.end(0) // must not panic
	if off.snapshot() != nil {
		t.Error("nil tracer has spans")
	}

	tr := newTracer()
	root := tr.startSession("sum32", 0, 7)
	child := tr.start("negotiate", root, 7)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].Program != "sum32" || spans[1].Parent != root || spans[1].Session != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if spans[1].StartNs < spans[0].StartNs || spans[1].EndNs > spans[0].EndNs {
		t.Errorf("child %+v is not inside its parent %+v", spans[1], spans[0])
	}
	if got := durations(spans, "negotiate"); len(got) != 1 {
		t.Errorf("durations = %v", got)
	}
}
