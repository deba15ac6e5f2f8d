package trace

import (
	"encoding/json"
	"io"
	"time"
)

// chromeEvent is one entry of the Chrome trace-event format (the subset
// chrome://tracing and Perfetto consume): complete events ("X") carry a
// microsecond timestamp and duration; metadata events ("M") name the
// tracks.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	PID  int64             `json:"pid"`
	TID  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace is the top-level document.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome serializes the collected spans as Chrome trace-event JSON.
// Each root span and its descendants form one track (tid = root span ID),
// so concurrent experiments render as parallel lanes; a metadata event
// names every track after its root span. Nil-safe: a nil tracer writes an
// empty, still-loadable document.
func (t *Tracer) WriteChrome(w io.Writer) error {
	doc := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	spans := t.Spans()

	// Track assignment: every span inherits the track of its root ancestor.
	track := make(map[int64]int64, len(spans))
	for _, s := range spans { // creation order ⇒ parents precede children
		if s.Parent == 0 {
			track[s.ID] = s.ID
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", PID: 1, TID: s.ID,
				Args: map[string]string{"name": s.Name},
			})
		} else {
			track[s.ID] = track[s.Parent]
		}
	}
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Name,
			Cat:  "codedensity",
			Ph:   "X",
			TS:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.Dur) / float64(time.Microsecond),
			PID:  1,
			TID:  track[s.ID],
		}
		if len(s.Attrs) > 0 {
			ev.Args = make(map[string]string, len(s.Attrs))
			for _, a := range s.Attrs {
				ev.Args[a.Key] = a.Value
			}
		}
		doc.TraceEvents = append(doc.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
