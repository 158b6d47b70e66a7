package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval recorded from the harness side of a layer
// boundary: around a call into an exported function, never inside it.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Class    string `json:"class,omitempty"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// SelfNS is the span's duration minus what its child spans cover;
	// filled in when the trace is written.
	SelfNS int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced run: the timed calls pay one nil check.
// It is used from one goroutine only (the harness's own).
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	stack    []int // ids of the open spans, innermost last
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name, class string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Workload: t.workload, Name: name, Class: class,
		StartNS: time.Since(t.epoch).Nanoseconds(),
	})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	n := len(t.stack)
	if n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order", id))
	}
	t.spans[id-1].EndNS = time.Since(t.epoch).Nanoseconds()
	t.stack = t.stack[:n-1]
}

// add records an already-measured interval as a child of the innermost
// open span (the open-loop client times requests itself).
func (t *tracer) add(name, class string, start, end time.Time) {
	if t == nil {
		return
	}
	id := t.begin(name, class)
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id-1].StartNS = start.Sub(t.epoch).Nanoseconds()
	t.spans[id-1].EndNS = end.Sub(t.epoch).Nanoseconds()
}

// write computes self times and writes one JSON object per span.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("bench: trace directory: %w", err)
	}
	for i := range t.spans {
		t.spans[i].SelfNS = t.spans[i].EndNS - t.spans[i].StartNS
	}
	for _, s := range t.spans {
		if s.Parent > 0 {
			t.spans[s.Parent-1].SelfNS -= s.EndNS - s.StartNS
		}
	}
	path := filepath.Join(dir, "trace-"+t.workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("bench: creating trace file: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("bench: writing trace: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("bench: flushing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("bench: closing trace: %w", err)
	}
	return path, nil
}
