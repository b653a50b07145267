package streamrule

import (
	"context"
	"fmt"

	"streamrule/internal/stream"
)

// Reasoner is the common surface of Engine and ParallelEngine.
type Reasoner interface {
	Reason(window []Triple) (*Output, error)
}

// DeltaReasoner is implemented by reasoners that can maintain their
// grounding incrementally across overlapping windows (Engine and
// ParallelEngine both do). The pipeline feeds windower-reported deltas to a
// DeltaReasoner automatically.
type DeltaReasoner interface {
	Reasoner
	ReasonDelta(window []Triple, d *Delta) (*Output, error)
}

// PipelinedReasoner is implemented by reasoners that can hold several
// windows in flight (DistributedEngine with WithMaxInFlight > 1): Submit
// enqueues a window, Collect yields results strictly in submission order,
// and InFlight reports the queue depth. The pipeline drives such a reasoner
// in submit-ahead mode automatically, overlapping window n+1's shipping
// with window n's remote compute.
type PipelinedReasoner interface {
	DeltaReasoner
	Submit(window []Triple, d *Delta) error
	Collect() (*Output, error)
	InFlight() int
	PipelineDepth() int
}

// Filter selects (and may rewrite) the triples forwarded to the reasoning
// layer — the stand-in for the stream query processor of StreamRule.
type Filter = stream.Filter

// PredicateFilter keeps only triples whose predicate is one of preds.
func PredicateFilter(preds ...string) Filter { return stream.PredicateFilter(preds) }

// Pipeline wires a triple source through a filter and a window operator into
// a reasoner, delivering one Output per completed window — the run-time half
// of the extended StreamRule architecture (Figure 6).
type Pipeline struct {
	// Source provides the triples. Required.
	Source []Triple
	// Rate paces the source in triples/second (0 = as fast as possible).
	Rate int
	// Filter is optional; nil forwards everything.
	Filter Filter
	// WindowSize is the tuple-based window size (required, > 0).
	WindowSize int
	// WindowStep, when set to less than WindowSize, makes the count window
	// sliding: a window of the last WindowSize items every WindowStep items.
	WindowStep int
	// Reasoner processes each window. Required.
	Reasoner Reasoner
}

// memoryStatser is satisfied by Engine and ParallelEngine (and any reasoner
// that surfaces memory metrics).
type memoryStatser interface {
	Stats() MemoryStats
}

// MemoryStats reports the reasoner's memory metrics when it exposes them
// (engines built with WithMemoryBudget always do). ok is false for
// reasoners without a Stats hook. For a DistributedEngine the snapshot's
// Transport field additionally carries the wire metrics.
func (p *Pipeline) MemoryStats() (stats MemoryStats, ok bool) {
	if m, isStatser := p.Reasoner.(memoryStatser); isStatser {
		return m.Stats(), true
	}
	return MemoryStats{}, false
}

// transportStatser is satisfied by DistributedEngine (and any reasoner that
// surfaces wire metrics).
type transportStatser interface {
	TransportStats() TransportStats
}

// TransportStats reports the reasoner's wire metrics when it is a
// distributed engine. ok is false for in-process reasoners.
func (p *Pipeline) TransportStats() (stats TransportStats, ok bool) {
	if m, isStatser := p.Reasoner.(transportStatser); isStatser {
		return m.TransportStats(), true
	}
	return TransportStats{}, false
}

// Run executes the pipeline until the source is exhausted or the context is
// cancelled, calling handle with each window's triples and reasoning output.
func (p *Pipeline) Run(ctx context.Context, handle func(window []Triple, out *Output) error) error {
	if p.Reasoner == nil {
		return fmt.Errorf("streamrule: pipeline needs a Reasoner")
	}
	var w stream.Windower
	switch {
	case p.WindowSize > 0 && p.WindowStep > 0 && p.WindowStep < p.WindowSize:
		w = &stream.SlidingCountWindow{Size: p.WindowSize, Step: p.WindowStep}
	case p.WindowSize > 0:
		w = &stream.CountWindow{Size: p.WindowSize}
	default:
		return fmt.Errorf("streamrule: pipeline needs WindowSize")
	}
	src := &stream.SliceSource{Triples: p.Source, Rate: p.Rate}
	if pr, ok := p.Reasoner.(PipelinedReasoner); ok && pr.PipelineDepth() > 1 {
		return p.runPipelined(ctx, src, w, pr, handle)
	}
	dr, _ := p.Reasoner.(DeltaReasoner)
	return stream.WindowsDelta(ctx, src, p.Filter, w, func(wd stream.WindowDelta) error {
		var out *Output
		var err error
		if dr != nil {
			var d *Delta
			if wd.Incremental {
				d = &Delta{Added: wd.Added, Retracted: wd.Retracted}
			}
			out, err = dr.ReasonDelta(wd.Window, d)
		} else {
			out, err = p.Reasoner.Reason(wd.Window)
		}
		if err != nil {
			return err
		}
		return handle(wd.Window, out)
	})
}

// runPipelined drives a PipelinedReasoner in submit-ahead mode: each
// emitted window is submitted immediately, and a result is collected (and
// handled) only once the pipeline is full — so up to PipelineDepth windows
// overlap. Windowers emit fresh window copies, so queuing them is safe. The
// tail of the stream is drained at the end; handle still observes every
// window in order. On any error the remaining in-flight legs are drained
// (their outputs discarded) before returning, so the reasoner is left with
// an empty pipeline and can be reused.
func (p *Pipeline) runPipelined(ctx context.Context, src stream.Source, w stream.Windower, pr PipelinedReasoner, handle func(window []Triple, out *Output) error) error {
	depth := pr.PipelineDepth()
	var queued [][]Triple
	collect := func() error {
		out, err := pr.Collect()
		if err != nil {
			return err
		}
		win := queued[0]
		queued = queued[1:]
		return handle(win, out)
	}
	err := stream.WindowsDelta(ctx, src, p.Filter, w, func(wd stream.WindowDelta) error {
		var d *Delta
		if wd.Incremental {
			d = &Delta{Added: wd.Added, Retracted: wd.Retracted}
		}
		if err := pr.Submit(wd.Window, d); err != nil {
			return err
		}
		queued = append(queued, wd.Window)
		if len(queued) >= depth {
			return collect()
		}
		return nil
	})
	if err == nil {
		for len(queued) > 0 {
			if err = collect(); err != nil {
				break
			}
		}
	}
	if err != nil {
		// A windower, Submit, Collect, or handle error abandons the windows
		// already in flight; leaving them undelivered desyncs the reasoner's
		// sessions on its next Submit. Retire each abandoned leg — Collect
		// always retires exactly one, even when it reports an error, so the
		// loop is bounded by the current in-flight count.
		for n := pr.InFlight(); n > 0; n-- {
			_, _ = pr.Collect()
		}
		return err
	}
	return nil
}
