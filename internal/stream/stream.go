// Package stream provides the stream-processing layer of the pipeline:
// sources of RDF triples, a pluggable filter standing in for the
// continuous query processor (CQELS in the original StreamRule), and window
// operators that batch the filtered stream into the input windows the
// reasoner processes per computation.
package stream

import (
	"context"
	"time"

	"streamrule/internal/rdf"
)

// Item is a stream element.
type Item struct {
	Triple rdf.Triple
}

// Source produces stream items on a channel until the context is cancelled
// or the source is exhausted.
type Source interface {
	// Run sends items to out, closing it when done. It returns the first
	// error encountered (context cancellation is not an error).
	Run(ctx context.Context, out chan<- Item) error
}

// SliceSource replays a fixed slice of triples, optionally paced at a fixed
// rate (triples per second; 0 = as fast as possible).
type SliceSource struct {
	Triples []rdf.Triple
	Rate    int
}

// Run implements Source.
func (s *SliceSource) Run(ctx context.Context, out chan<- Item) error {
	defer close(out)
	var tick <-chan time.Time
	var ticker *time.Ticker
	if s.Rate > 0 {
		ticker = time.NewTicker(time.Second / time.Duration(s.Rate))
		defer ticker.Stop()
		tick = ticker.C
	}
	for _, t := range s.Triples {
		if tick != nil {
			select {
			case <-ctx.Done():
				return nil
			case <-tick:
			}
		}
		select {
		case <-ctx.Done():
			return nil
		case out <- Item{Triple: t}:
		}
	}
	return nil
}

// Filter is the stand-in for the stream query processor: it selects (and may
// rewrite) the semantic data elements forwarded to the reasoning layer. A
// nil Filter forwards everything.
type Filter func(rdf.Triple) (rdf.Triple, bool)

// PredicateFilter keeps only triples whose predicate is in the given set —
// the typical shape of the paper's filtered stream, where every forwarded
// triple belongs to inpre(P).
func PredicateFilter(preds []string) Filter {
	set := make(map[string]bool, len(preds))
	for _, p := range preds {
		set[p] = true
	}
	return func(t rdf.Triple) (rdf.Triple, bool) { return t, set[t.P] }
}

// Windower batches items into windows.
type Windower interface {
	// Add offers an item; a non-nil return is a completed window.
	Add(Item) []rdf.Triple
	// Flush returns the current partial window (possibly empty).
	Flush() []rdf.Triple
}

// WindowDelta is a completed window together with its change relative to the
// previously emitted window. When Incremental is true, the new window equals
// the previous window minus Retracted plus Added (as multisets of triples);
// downstream reasoners can then maintain their grounding incrementally
// instead of reprocessing the full window. The first emission of a stream,
// and emissions of windowers that cannot relate consecutive windows, carry
// Incremental == false with Added == Window.
type WindowDelta struct {
	Window    []rdf.Triple
	Added     []rdf.Triple
	Retracted []rdf.Triple
	// Incremental reports whether Added/Retracted are valid relative to the
	// previous emission.
	Incremental bool
}

// DeltaWindower is implemented by windowers that report per-emission deltas
// (the sliding windows). AddDelta is the delta-aware Add: a non-nil return is
// a completed window with its delta.
type DeltaWindower interface {
	Windower
	AddDelta(Item) *WindowDelta
}

// CountWindow is the tuple-based window of the paper: every Size items form
// one window.
type CountWindow struct {
	Size int
	buf  []rdf.Triple
}

// Add implements Windower.
func (w *CountWindow) Add(it Item) []rdf.Triple {
	w.buf = append(w.buf, it.Triple)
	if w.Size > 0 && len(w.buf) >= w.Size {
		out := w.buf
		w.buf = make([]rdf.Triple, 0, w.Size)
		return out
	}
	return nil
}

// Flush implements Windower.
func (w *CountWindow) Flush() []rdf.Triple {
	out := w.buf
	w.buf = nil
	return out
}

// WindowsDelta runs source -> filter -> windower and invokes handle for every
// completed window (including the final partial window, if non-empty). When
// the windower implements DeltaWindower, each completed window carries the
// added/retracted triples relative to the previous emission; otherwise every
// window is delivered as a non-incremental delta (Added == Window). It
// propagates the source error and stops early if handle returns an error.
func WindowsDelta(ctx context.Context, src Source, filter Filter, w Windower, handle func(WindowDelta) error) error {
	items := make(chan Item, 1024)
	errc := make(chan error, 1)
	go func() { errc <- src.Run(ctx, items) }()
	dw, _ := w.(DeltaWindower)
	for it := range items {
		if filter != nil {
			t, ok := filter(it.Triple)
			if !ok {
				continue
			}
			it.Triple = t
		}
		var wd *WindowDelta
		if dw != nil {
			wd = dw.AddDelta(it)
		} else if win := w.Add(it); win != nil {
			wd = &WindowDelta{Window: win, Added: win}
		}
		if wd != nil {
			if err := handle(*wd); err != nil {
				// Drain the source to unblock it.
				cancelDrain(items)
				<-errc
				return err
			}
		}
	}
	if err := <-errc; err != nil {
		return err
	}
	if rest := w.Flush(); len(rest) > 0 {
		return handle(WindowDelta{Window: rest, Added: rest})
	}
	return nil
}

func cancelDrain(items <-chan Item) {
	go func() {
		for range items {
		}
	}()
}
