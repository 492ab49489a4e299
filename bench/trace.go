package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the package boundary. Spans of one op share Op, the id of the op's root
// span; Parent is 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"` // layer.call
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. The traced run is one
// goroutine, so the open spans are a stack.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // ids of open spans, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one. An empty name is filled
// in by endAs, for calls whose kind is known only from their result.
func (t *tracer) begin(name string) int {
	id := len(t.spans) + 1
	s := span{ID: id, Op: id, Name: name}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1]
		s.Op = t.spans[s.Parent-1].Op
	}
	t.open = append(t.open, id)
	s.Start = int64(time.Since(t.t0))
	t.spans = append(t.spans, s)
	return id
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
	return time.Duration(s.End - s.Start)
}

func (t *tracer) endAs(id int, name string) time.Duration {
	t.spans[id-1].Name = name
	return t.end(id)
}

// selfStat is the time a span name spent outside its child spans.
type selfStat struct {
	selfNS int64
	calls  int
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover. Only spans of ops whose root is named root count; an
// empty root takes every op.
func selfTimes(spans []span, root string) map[string]selfStat {
	child := make([]int64, len(spans)+1)
	for _, s := range spans {
		child[s.Parent] += s.End - s.Start
	}
	out := map[string]selfStat{}
	for _, s := range spans {
		if root != "" && spans[s.Op-1].Name != root {
			continue
		}
		st := out[s.Name]
		st.selfNS += s.End - s.Start - child[s.ID]
		st.calls++
		out[s.Name] = st
	}
	return out
}

// durations lists the full durations (ms) of the spans called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
