package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	ms := time.Millisecond
	r := &recorder{spans: []span{
		{ID: 1, Run: 1, Layer: "pipeline", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Run: 1, Layer: "spmat", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Run: 1, Layer: "spmat", Start: 20 * ms, End: 50 * ms},  // overlaps span 2
		{ID: 4, Parent: 1, Run: 1, Layer: "align", Start: 90 * ms, End: 120 * ms}, // runs past its parent
		{ID: 5, Parent: 4, Run: 1, Layer: "mpi", Start: 95 * ms, End: 105 * ms},
	}}
	got := r.selfTime()
	want := map[string]time.Duration{
		"pipeline": 50 * ms, // 100 minus the union 10..50 and 90..100
		"spmat":    50 * ms, // children of nothing: full durations 20 + 30
		"align":    20 * ms, // 30 minus its child's 10
		"mpi":      10 * ms,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
}

func TestRecorderNestsAndWrites(t *testing.T) {
	r := newRecorder()
	run := r.newRun()
	root := r.begin(run, 0, "serve", "job")
	child := r.begin(run, root, "serve", "submit")
	r.end(child)
	if d := r.end(root); d <= 0 {
		t.Fatalf("root span duration %v, want > 0", d)
	}
	if len(r.spans) != 2 || r.spans[1].Parent != root || r.spans[1].Run != run {
		t.Fatalf("spans %+v: want the child under the root, same run", r.spans)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.writeFile(path, map[string]any{"stamp": "x"}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file not written: %v", err)
	}
}

func TestNilRecorderIsOff(t *testing.T) {
	var r *recorder
	if id := r.begin(r.newRun(), 0, "kmer", "CountKmer"); id != 0 || r.end(id) != 0 || r.selfTime() != nil {
		t.Fatal("a nil recorder must record nothing")
	}
	if err := r.writeFile(filepath.Join(t.TempDir(), "t.json"), map[string]any{}); err != nil {
		t.Fatal(err)
	}
}
