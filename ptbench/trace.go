package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. parent is the index of the span
// that caused it (-1 for an operation's root); op numbers the seeded
// operation the span belongs to (-1 for set-up and analysis spans).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory. It is used from one goroutine. When off,
// begin and end do nothing, so the same code path gives the untraced
// timings the tracing overhead is measured against.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	op    int
	open  int // innermost open span, -1 when none
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: -1} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: t.open, Op: t.op})
	t.open = len(t.spans) - 1
	return t.open
}

// end closes span id.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.spans[id].Parent
}

// selfTimes returns each span's duration minus the part of its interval
// its child spans cover.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, cur := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, cur), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// layerOf names the layer a span belongs to: the part of its name
// before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layerSelf sums self time by layer over every operation whose root span
// is named root, and returns the per-operation mean of each layer and
// the number of such operations.
func layerSelf(spans []span, root string) (map[string]time.Duration, int) {
	self := selfTimes(spans)
	rootOf := make([]int, len(spans))
	ops := 0
	out := map[string]time.Duration{}
	for i, s := range spans {
		if s.Parent < 0 {
			rootOf[i] = i
			if s.Name == root {
				ops++
			}
		} else {
			rootOf[i] = rootOf[s.Parent]
		}
		if spans[rootOf[i]].Name == root {
			out[layerOf(s.Name)] += self[i]
		}
	}
	if ops > 0 {
		for k := range out {
			out[k] /= time.Duration(ops)
		}
	}
	return out, ops
}

// durations returns the durations of every span named name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// writeSpans writes the spans as JSON to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
