package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestNilLaneIsNoOp(t *testing.T) {
	var l *Lane
	st := l.Start()
	l.Span(0, "c", "n", st)
	l.Instant(1, "c", "n", Arg{K: "k", V: 1})
	if l.Events() != nil || l.Dropped() != 0 {
		t.Fatal("nil lane recorded something")
	}
	var tr *Trace
	if tr.Ranks() != 0 || tr.Rank(0) != nil {
		t.Fatal("nil trace not inert")
	}
}

func TestLaneRecordsSpansAndInstants(t *testing.T) {
	tr := NewTrace(2)
	l := tr.Rank(1)
	st := l.Start()
	l.Span(0, "stage", "CountKmer", st, Arg{K: "rank", V: 1})
	l.Instant(0, "mpi", "send", Arg{K: "dst", V: 3}, Arg{K: "bytes", V: 800})
	evs := l.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Ph != 'X' || evs[0].Name != "CountKmer" || evs[0].Dur < 0 {
		t.Fatalf("span event wrong: %+v", evs[0])
	}
	if evs[1].Ph != 'i' || evs[1].Args[1].V != 800 {
		t.Fatalf("instant event wrong: %+v", evs[1])
	}
	if len(tr.Rank(0).Events()) != 0 {
		t.Fatal("rank 0 lane should be empty")
	}
}

func TestLaneRingOverwritesOldest(t *testing.T) {
	tr := NewTraceCap(1, 4)
	l := tr.Rank(0)
	for i := 0; i < 10; i++ {
		l.Instant(0, "c", "e", Arg{K: "i", V: int64(i)})
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if want := int64(6 + i); e.Args[0].V != want {
			t.Fatalf("event %d carries %d, want %d (newest must survive)", i, e.Args[0].V, want)
		}
	}
	if l.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", l.Dropped())
	}
}

func TestLaneConcurrentRecording(t *testing.T) {
	tr := NewTrace(1)
	l := tr.Rank(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Instant(int32(w), "c", "e")
			}
		}(w)
	}
	wg.Wait()
	if got := len(l.Events()); got != 800 {
		t.Fatalf("got %d events, want 800", got)
	}
}

func TestWriteJSONIsPerfettoShaped(t *testing.T) {
	tr := NewTrace(2)
	st := tr.Rank(0).Start()
	tr.Rank(0).Span(0, "stage", "Alignment", st)
	tr.Rank(0).Span(1, "pool", "align", st, Arg{K: "lo", V: 0}, Arg{K: "n", V: 5})
	tr.Rank(1).Instant(0, "mpi", "send", Arg{K: "dst", V: 0})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var spans, instants, procNames, threadNames int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "X":
			spans++
			if _, ok := e["dur"]; !ok {
				t.Fatalf("span without dur: %v", e)
			}
		case "i":
			instants++
		case "M":
			switch e["name"] {
			case "process_name":
				procNames++
			case "thread_name":
				threadNames++
			}
		}
	}
	if spans != 2 || instants != 1 {
		t.Fatalf("spans=%d instants=%d, want 2/1", spans, instants)
	}
	if procNames != 2 {
		t.Fatalf("process_name metadata for %d ranks, want 2", procNames)
	}
	// rank 0: tids 0 and 1; rank 1: tid 0.
	if threadNames != 3 {
		t.Fatalf("thread_name metadata %d, want 3", threadNames)
	}
	if !strings.Contains(buf.String(), `"worker 0"`) {
		t.Fatal("pool worker thread not named")
	}
}

// TestTraceCompactKeepsEventsReleasesRing: compaction shrinks every lane to
// exactly its retained events — wrapped, partly filled and empty lanes
// alike — without changing events, order, drop counts or the JSON export,
// and the compacted rings stay usable.
func TestTraceCompactKeepsEventsReleasesRing(t *testing.T) {
	tr := NewTraceCap(3, 8)
	for i := 0; i < 13; i++ { // rank 0 wraps: head moves, 5 drops
		tr.Rank(0).Instant(0, "c", "e", Arg{K: "i", V: int64(i)})
	}
	for i := 0; i < 3; i++ { // rank 1 partly filled; rank 2 stays empty
		tr.Rank(1).Span(int32(i), "c", "s", tr.Rank(1).Start())
	}
	var before bytes.Buffer
	if err := tr.WriteJSON(&before); err != nil {
		t.Fatal(err)
	}
	var events [][]Event
	var dropped []int64
	for r := 0; r < tr.Ranks(); r++ {
		events = append(events, tr.Rank(r).Events())
		dropped = append(dropped, tr.Rank(r).Dropped())
	}

	tr.Compact()
	var after bytes.Buffer
	if err := tr.WriteJSON(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("compaction changed the JSON export")
	}
	for r := 0; r < tr.Ranks(); r++ {
		l := tr.Rank(r)
		if got := l.Events(); len(got) != len(events[r]) || (len(got) > 0 && !reflect.DeepEqual(got, events[r])) {
			t.Fatalf("rank %d: events changed by compaction", r)
		}
		if l.Dropped() != dropped[r] {
			t.Fatalf("rank %d: dropped %d, want %d", r, l.Dropped(), dropped[r])
		}
		if l.Cap() != len(events[r]) {
			t.Fatalf("rank %d: retained capacity %d, want %d (the retained event count)", r, l.Cap(), len(events[r]))
		}
	}

	// A compacted lane is a full ring: new events evict the oldest (or are
	// dropped outright when nothing was retained).
	tr.Rank(0).Instant(0, "c", "e", Arg{K: "i", V: 13})
	if evs := tr.Rank(0).Events(); len(evs) != 8 || evs[0].Args[0].V != 6 || evs[7].Args[0].V != 13 {
		t.Fatalf("compacted ring did not evict oldest: %+v", evs)
	}
	tr.Rank(2).Instant(0, "c", "e")
	if tr.Rank(2).Dropped() != 1 || len(tr.Rank(2).Events()) != 0 {
		t.Fatal("empty compacted lane must count a drop")
	}
}

// TestLaneGrowsOnDemand: a lane allocates as it fills, never beyond its ring
// capacity, and wraps exactly like a preallocated ring once full.
func TestLaneGrowsOnDemand(t *testing.T) {
	l := NewTrace(1).Rank(0)
	if l.Cap() != 0 {
		t.Fatalf("fresh lane holds %d events of capacity, want 0", l.Cap())
	}
	for i := 0; i < 3; i++ {
		l.Instant(0, "c", "e")
	}
	if c := l.Cap(); c < 3 || c >= DefaultLaneCap {
		t.Fatalf("3 events hold capacity %d, want well below the ring's %d", c, DefaultLaneCap)
	}
	small := NewTraceCap(1, 300).Rank(0) // growth must stop at the ring size
	for i := 0; i < 1000; i++ {
		small.Instant(0, "c", "e", Arg{K: "i", V: int64(i)})
	}
	evs := small.Events()
	if small.Cap() != 300 || len(evs) != 300 || small.Dropped() != 700 || evs[0].Args[0].V != 700 {
		t.Fatalf("cap %d, %d events, %d dropped, oldest %d; want 300, 300, 700, 700",
			small.Cap(), len(evs), small.Dropped(), evs[0].Args[0].V)
	}
}
