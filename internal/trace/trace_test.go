package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestNilTracerAndSpanAreSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.Root("r")
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	// Every span method must be a no-op on nil.
	sp.Set("k", "v").SetInt("n", 1)
	if c := sp.Child("c"); c != nil {
		t.Fatal("nil span returned a child")
	}
	sp.End()
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer collected spans")
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestSpanHierarchyAndAttrs(t *testing.T) {
	tr := New()
	root := tr.Root("experiment").Set("id", "fig5").SetInt("worker", 2)
	child := root.Child("compress")
	grand := child.Child("dict.select")
	grand.End()
	child.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	byName := map[string]SpanInfo{}
	for _, s := range spans {
		byName[s.Name] = s
		if !s.Ended {
			t.Errorf("%s not ended", s.Name)
		}
	}
	if byName["experiment"].Parent != 0 {
		t.Error("root has a parent")
	}
	if byName["compress"].Parent != byName["experiment"].ID {
		t.Error("child not parented to root")
	}
	if byName["dict.select"].Parent != byName["compress"].ID {
		t.Error("grandchild not parented to child")
	}
	attrs := byName["experiment"].Attrs
	if len(attrs) != 2 || attrs[0] != (Attr{"id", "fig5"}) || attrs[1] != (Attr{"worker", "2"}) {
		t.Errorf("attrs = %+v", attrs)
	}
}

// chromeDoc mirrors the subset of the trace-event format the exporter
// emits; unmarshalling the output into it is the round-trip gate that the
// file chrome://tracing / Perfetto will accept.
type chromeDoc struct {
	TraceEvents []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		TS   *float64          `json:"ts"`
		Dur  float64           `json:"dur"`
		PID  *int64            `json:"pid"`
		TID  *int64            `json:"tid"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestWriteChromeRoundTrip(t *testing.T) {
	tr := New()
	a := tr.Root("experiment:fig5").Set("worker", "0")
	a.Child("corpus.compress").Set("bench", "gcc").End()
	a.End()
	b := tr.Root("experiment:fig6")
	b.End()

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter output is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// 2 thread_name metadata events + 3 span events.
	var meta, complete int
	tracks := map[int64]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "" || ev.TS == nil || ev.PID == nil || ev.TID == nil {
			t.Fatalf("event missing required fields: %+v", ev)
		}
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			tracks[*ev.TID] = true
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 2 || complete != 3 {
		t.Fatalf("events: %d metadata + %d complete, want 2 + 3", meta, complete)
	}
	// The two roots must land on distinct tracks; the child shares its
	// root's track.
	if len(tracks) != 2 {
		t.Fatalf("tracks = %v, want 2", tracks)
	}
}

// TestWriteChromeAttrsAndNesting: a root's attributes become its event's
// args, and its child's event lands on the root's track.
func TestWriteChromeAttrsAndNesting(t *testing.T) {
	tr := New()
	root := tr.Root("experiment").Set("id", "fig5")
	root.Child("corpus.compress").End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	tid := map[string]int64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		tid[ev.Name] = *ev.TID
		if ev.Name == "experiment" && ev.Args["id"] != "fig5" {
			t.Errorf("root args = %v", ev.Args)
		}
	}
	if len(tid) != 2 || tid["corpus.compress"] != tid["experiment"] {
		t.Fatalf("tracks = %v, want the child on its root's track", tid)
	}
}

// TestConcurrentCollector exercises the collector from many goroutines —
// span creation, attribute writes, End, and mid-run exports — and is the
// tracer's -race gate.
func TestConcurrentCollector(t *testing.T) {
	tr := New()
	root := tr.Root("run")
	const workers, iters = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				sp := root.Child("work").SetInt("worker", int64(i))
				sp.Child("inner").End()
				sp.End()
				if j%10 == 0 {
					_ = tr.Spans()
					_ = tr.WriteChrome(&bytes.Buffer{})
				}
			}
		}()
	}
	wg.Wait()
	root.End()
	if got, want := tr.Len(), 1+workers*iters*2; got != want {
		t.Fatalf("spans = %d, want %d", got, want)
	}
}

func TestWriteChromeEmptyTracer(t *testing.T) {
	// A live tracer that collected no spans must still write a loadable
	// document: an empty traceEvents array, not null and not an error.
	tr := New()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
		Unit        string            `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output not JSON: %v\n%s", err, buf.Bytes())
	}
	if doc.TraceEvents == nil {
		t.Fatal("traceEvents serialized as null; Chrome rejects that")
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("unexpected events: %s", buf.Bytes())
	}
	if doc.Unit != "ms" {
		t.Fatalf("displayTimeUnit %q", doc.Unit)
	}
}

// TestPhaseIsSpan: a phase span's one measured duration is both its Dur
// and its recorder phase's Nanos, recorded once however often it ends.
func TestPhaseIsSpan(t *testing.T) {
	tr := New()
	rec := stats.New()
	root := tr.Root("r")
	for i := 0; i < 3; i++ {
		sp := root.Phase("core.build", rec).Set("i", "x")
		sp.Child("dict.select").End()
		sp.End()
		sp.End()
	}
	root.Phase("core.encode", nil).End() // nil rec: a plain child
	root.End()

	var n int64
	var sum time.Duration
	for _, s := range tr.Spans() {
		if s.Name == "core.build" {
			n++
			sum += s.Dur
			if s.Parent != 1 || len(s.Attrs) != 1 {
				t.Errorf("phase span %+v", s)
			}
		}
	}
	if tr.Len() != 8 {
		t.Errorf("spans = %d, want 8", tr.Len())
	}
	snap := rec.Snapshot()
	if p := snap.Phase("core.build"); p.Count != n || p.Nanos != int64(sum) || n != 3 {
		t.Errorf("phase %+v, spans %d summing %d ns", p, n, sum)
	}
	if len(snap.Phases) != 1 {
		t.Errorf("phases = %v, want core.build alone", snap.Phases)
	}
}

// TestDetachedPhase: without a tracer a phase still records, through a
// detached span that has no children and collects nothing; without a
// recorder too it is nil and free.
func TestDetachedPhase(t *testing.T) {
	rec := stats.New()
	var parent *Span
	sp := parent.Phase("corpus.compress", rec).Set("bench", "gcc").SetInt("n", 1)
	if sp == nil {
		t.Fatal("nil parent with a recorder returned nil")
	}
	if sp.Child("dict.select") != nil {
		t.Error("a detached span returned a child")
	}
	inner := sp.Phase("core.build", rec)
	if inner == nil {
		t.Fatal("Phase of a detached span returned nil")
	}
	inner.End()
	sp.End()
	snap := rec.Snapshot()
	for _, name := range []string{"corpus.compress", "core.build"} {
		if snap.Phase(name).Count != 1 {
			t.Errorf("%s = %+v, want one invocation", name, snap.Phase(name))
		}
	}
	if parent.Phase("core.build", nil) != nil {
		t.Error("nil parent and nil recorder returned a span")
	}
	if a := testing.AllocsPerRun(100, func() {
		parent.Phase("core.build", nil).Set("k", "v").End()
	}); a != 0 {
		t.Errorf("untraced, unrecorded phase allocates %v", a)
	}
}
