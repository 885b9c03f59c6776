package main

import "testing"

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{start: 100, end: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{start: 120, end: 150}}, 70},
		{"disjoint", []span{{start: 110, end: 120}, {start: 150, end: 170}}, 70},
		{"overlapping count once", []span{{start: 110, end: 150}, {start: 140, end: 160}}, 50},
		{"nested child adds nothing", []span{{start: 110, end: 160}, {start: 120, end: 130}}, 50},
		{"out of order", []span{{start: 150, end: 170}, {start: 110, end: 120}}, 70},
		{"sticks out of the parent", []span{{start: 50, end: 120}, {start: 190, end: 400}}, 70},
		{"outside the parent", []span{{start: 10, end: 90}, {start: 200, end: 300}}, 100},
		{"covers the parent", []span{{start: 0, end: 500}}, 0},
		{"touching", []span{{start: 100, end: 150}, {start: 150, end: 200}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRecorderParentsAndOverflow(t *testing.T) {
	rec := newRecorder(3)
	root := rec.begin(spanOp, -1, -1)
	child := rec.begin(spanClientRequest, root, root)
	rec.end(child)
	rec.end(root)
	server := rec.add(spanCoreInvoke, child, -1, rec.epoch, rec.epoch)
	if over := rec.begin(spanOp, -1, -1); over != -1 {
		t.Fatalf("a full recorder handed out span %d", over)
	}
	rec.end(-1) // must not panic
	if got := rec.dropped.Load(); got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
	spans := rec.recorded()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	resolveRequests(spans)
	for i, s := range spans {
		if s.req != root {
			t.Errorf("span %d belongs to request %d, want %d", i, s.req, root)
		}
	}
	if kids := childrenOf(spans); len(kids[root]) != 1 || len(kids[child]) != 1 || kids[child][0].name != spanCoreInvoke {
		t.Errorf("children = %v", kids)
	}
	if spans[server].end < spans[server].start || spans[root].end < spans[child].end {
		t.Errorf("span times out of order: %+v", spans)
	}
}
