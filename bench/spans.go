package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call-group into a layer: which layer call, when, under
// which parent span, and how many calls and units of work it covered.
type span struct {
	name   int32 // index into tracer.names
	parent int32 // span index, -1 for a root
	start  int64 // ns since the tracer started
	end    int64
	calls  int64
}

// tracer keeps spans in memory and writes them out at exit. A nil *tracer
// is tracing switched off: every method is a no-op.
type tracer struct {
	run   string // workload run id shared by every span
	t0    time.Time
	names []string
	index map[string]int32
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: now(), index: map[string]int32{}, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) nameIndex(name string) int32 {
	ni, ok := t.index[name]
	if !ok {
		ni = int32(len(t.names))
		t.names = append(t.names, name)
		t.index[name] = ni
	}
	return ni
}

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: t.nameIndex(name), parent: int32(parent), start: int64(since(t.t0))})
	return len(t.spans) - 1
}

// rename gives span id another name, for a call whose kind is known only
// once it has returned.
func (t *tracer) rename(id int, name string) {
	if t != nil {
		t.spans[id].name = t.nameIndex(name)
	}
}

// end closes span id, recording how many layer calls it covered.
func (t *tracer) end(id int, calls int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.end = int64(since(t.t0))
	s.calls = int64(calls)
}

// layerTotal is what the spans of one name add up to.
type layerTotal struct {
	Calls int64
	Ns    int64
}

// layerTotals is the spans summed by name.
type layerTotals map[string]layerTotal

// perCall is the mean ns per call over every span of the name.
func (lt layerTotals) perCall(name string) float64 {
	return ratio(float64(lt[name].Ns), float64(lt[name].Calls))
}

// totals sums spans by name.
func (t *tracer) totals() layerTotals {
	out := layerTotals{}
	if t == nil {
		return out
	}
	for _, s := range t.spans {
		lt := out[t.names[s.name]]
		lt.Calls += s.calls
		lt.Ns += s.end - s.start
		out[t.names[s.name]] = lt
	}
	return out
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	names, _ := json.Marshal(t.names)
	fmt.Fprintf(w, "{\"run\":%q,\"names\":%s,\n\"columns\":[\"name\",\"parent\",\"start_ns\",\"end_ns\",\"calls\"],\n\"spans\":[", t.run, names)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		if i%8 == 0 {
			w.WriteByte('\n')
		}
		fmt.Fprintf(w, "[%d,%d,%d,%d,%d]", s.name, s.parent, s.start, s.end, s.calls)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
