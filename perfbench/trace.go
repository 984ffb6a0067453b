package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ssam/internal/obs"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code. Spans of one request share req; parent 0 marks a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Req    int64   `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // since the run began
	End    float64 `json:"end_us"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// stages holds, per server stage, the first matching span's
	// duration from each force-traced request.
	stages map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), stages: make(map[string][]float64)}
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: us(start.Sub(t.t0)), End: us(end.Sub(t.t0)),
	})
	return id
}

// timed runs fn inside a root span and returns its duration.
func (t *tracer) timed(name string, req int64, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, 0, req, start, end)
	return end.Sub(start)
}

// serverStages are the X-SSAM-Trace stages the server reports per
// search: admission wait, micro-batcher queue wait and execution.
var serverStages = []string{"admission", "queue", "exec"}

// addServer records a server trace returned inline with a response
// under the client span parent. The server runs in this process, so
// its wall-clock start is comparable with the tracer's.
func (t *tracer) addServer(parent int, req int64, td *obs.TraceData) {
	if td == nil || td.Root == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, stage := range serverStages {
		if sd := td.Root.Find(stage); sd != nil {
			t.stages[stage] = append(t.stages[stage], sd.DurUs)
		}
	}
	base := us(td.Start.Sub(t.t0))
	var walk func(sd *obs.SpanData, parent int)
	walk = func(sd *obs.SpanData, parent int) {
		id := len(t.spans) + 1
		t.spans = append(t.spans, span{
			ID: id, Parent: parent, Req: req, Name: "server." + sd.Stage,
			Start: base + sd.StartUs, End: base + sd.StartUs + sd.DurUs,
		})
		for _, c := range sd.Children {
			walk(c, id)
		}
	}
	walk(td.Root, parent)
}

// durations returns the durations of every span named name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration((s.End-s.Start)*float64(time.Microsecond)))
		}
	}
	return out
}

// write dumps the spans as JSON lines, after a header line with the
// run's provenance.
func (t *tracer) write(path string, header map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
