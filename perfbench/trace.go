package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"

	"privtree/internal/dataset"
)

// spanRec is one timed layer call. A span with a parent ran inside it
// (a sink's writes inside the apply call that drives the sink) and
// Dur is then the total time of all its calls.
type spanRec struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// stepTrace is what a traced step writes when it ends: its spans, kept
// in memory until then, and the Go runtime's counters for the process.
type stepTrace struct {
	Spans      []spanRec `json:"spans"`
	AllocBytes uint64    `json:"alloc_bytes"`
	GCCycles   uint32    `json:"gc_cycles"`
}

// tracer times layer calls from outside the program. A nil *tracer
// calls straight through, so an untraced step runs the bare calls.
type tracer struct {
	t0  time.Time
	out stepTrace
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// call runs fn, recording it as a span named name.
func (t *tracer) call(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	t.out.Spans = append(t.out.Spans, spanRec{Name: name, Start: start.Sub(t.t0).Nanoseconds(), Dur: time.Since(start).Nanoseconds()})
	return err
}

// sink wraps s so that its Write and Flush time is recorded as span
// name inside span parent; untraced, s is returned unwrapped.
func (t *tracer) sink(s dataset.Sink, name, parent string) dataset.Sink {
	if t == nil {
		return s
	}
	ts := &timedSink{Sink: s, t: t, idx: len(t.out.Spans)}
	t.out.Spans = append(t.out.Spans, spanRec{Name: name, Parent: parent, Start: -1})
	return ts
}

// write adds the runtime counters and writes the trace to path.
func (t *tracer) write(path string) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.out.AllocBytes, t.out.GCCycles = ms.TotalAlloc, ms.NumGC
	blob, err := json.Marshal(&t.out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// timedSink adds the time spent in the wrapped sink to its span.
// Sinks are written from one goroutine at a time, so the span needs no
// lock.
type timedSink struct {
	dataset.Sink
	t   *tracer
	idx int
}

func (s *timedSink) timed(fn func() error) error {
	start := time.Now()
	err := fn()
	sp := &s.t.out.Spans[s.idx]
	if sp.Start < 0 {
		sp.Start = start.Sub(s.t.t0).Nanoseconds()
	}
	sp.Dur += time.Since(start).Nanoseconds()
	return err
}

func (s *timedSink) Write(b *dataset.Block) error {
	return s.timed(func() error { return s.Sink.Write(b) })
}

func (s *timedSink) Flush() error { return s.timed(s.Sink.Flush) }
