package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: 10..50 counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130}, // clipped to the parent at 100
		{ID: 5, Parent: 2, Name: "a.1", Start: 12, End: 18},
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	want := map[int]time.Duration{1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 40, 5: 6, 6: 7}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %v, want %v", id, got[id], w)
		}
	}
}

func TestTracerRecordsNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("sweep", "run-1", 0)
	child := tr.begin("cell", "run-1", root)
	time.Sleep(time.Millisecond)
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[0].dur() < tr.spans[1].dur() {
		t.Fatalf("spans %+v", tr.spans)
	}
	if d := tr.durations("cell"); len(d) != 1 || d[0] < 0.001 {
		t.Errorf("cell durations %v", d)
	}

	var off *tracer // untraced passes call the same code
	if id := off.begin("x", "", 0); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	off.end(0)
	if off.durations("x") != nil {
		t.Error("nil tracer has durations")
	}
}
