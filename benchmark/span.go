package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one window share Seq; Parent is the span that caused this
// one (-1 for a window's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Seq    int    `json:"seq"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced run shares the facade wrapper.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(parent, seq int, layer, name string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Seq: seq, Layer: layer, Name: name, Start: now, End: -1})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span whose interval was measured by the caller.
func (r *recorder) add(parent, seq int, layer, name string, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Seq: seq, Layer: layer, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	r.mu.Unlock()
	return id
}

// drop empties a span that was opened for work that never happened.
func (r *recorder) drop(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id].End = r.spans[id].Start
	r.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of that interval
// its child spans cover. Children may overlap (partitions reason in parallel),
// so the covered part is the union of their intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].Start < spans[kids[j]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerSelfMS sums self time per "layer.name", in milliseconds, over the
// spans keep selects.
func layerSelfMS(spans []span, keep func(span) bool) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		if keep(s) {
			out[s.Layer+"."+s.Name] += float64(self[s.ID]) / 1e6
		}
	}
	return out
}

// coveredMS is the wall time, in milliseconds, during which at least one call
// into a layer was running on behalf of a window, summed over the windows
// keep selects: per root span, the union of its descendants' intervals. The
// walk's own grouping spans and the stream span (the facade's window time
// does not include windowing either) are not layer calls.
func coveredMS(spans []span, keep func(span) bool) float64 {
	root := make([]int, len(spans))
	calls := map[int][]span{}
	for _, s := range spans { // a parent always has a smaller ID than its children
		root[s.ID] = s.ID
		if s.Parent >= 0 {
			root[s.ID] = root[s.Parent]
		}
		if keep(s) && s.Parent >= 0 && s.Layer != "walk" && s.Layer != "stream" {
			calls[root[s.ID]] = append(calls[root[s.ID]], s)
		}
	}
	total := int64(0)
	for _, cs := range calls {
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		edge := cs[0].Start
		for _, c := range cs {
			if lo := max(c.Start, edge); c.End > lo {
				total += c.End - lo
				edge = c.End
			}
		}
	}
	return float64(total) / 1e6
}

// checkSpans verifies that the trace is well formed: every span ended, every
// parent exists and encloses its child's start, and no self time is negative.
func checkSpans(spans []span) error {
	self := selfTimes(spans)
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s.%s) never ended", s.ID, s.Layer, s.Name)
		}
		if s.Parent >= len(spans) || s.Parent == s.ID {
			return fmt.Errorf("span %d has unresolved parent %d", s.ID, s.Parent)
		}
		if s.Parent >= 0 && s.End > s.Start {
			if p := spans[s.Parent]; s.Start < p.Start || s.Start > p.End {
				return fmt.Errorf("span %d starts outside its parent %d", s.ID, s.Parent)
			}
		}
		if self[s.ID] < 0 {
			return fmt.Errorf("span %d has negative self time", s.ID)
		}
	}
	return nil
}

// writeSpans writes the trace as JSON lines, workload first, into traceDir
// inside the working directory.
func writeSpans(workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]any{"workload": workload, "seed": seed, "spans": len(spans)})
	for i := 0; err == nil && i < len(spans); i++ {
		err = enc.Encode(spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// traceDir is listed in the repository's .gitignore.
const traceDir = ".bench_out"
