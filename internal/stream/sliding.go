package stream

import "streamrule/internal/rdf"

// SlidingCountWindow emits a window of the last Size items every Step items
// (Step <= Size; Step == Size degenerates to CountWindow). It is the
// count-based sliding window of CQL-style stream processors.
//
// SlidingCountWindow implements DeltaWindower: from the second emission on,
// each window reports the Step items that entered and the Step items that
// left relative to the previous emission, enabling incremental re-grounding
// downstream (with Step < Size, consecutive windows share Size-Step items).
type SlidingCountWindow struct {
	Size int
	Step int
	buf  []rdf.Triple
	seen int
	// prev is the previously emitted window (the emitted copy, so deltas
	// can alias it); sinceEmit counts items arrived after that emission.
	prev      []rdf.Triple
	sinceEmit int
}

// step returns the effective step (Step clamped into 1..Size).
func (w *SlidingCountWindow) step() int {
	if w.Step <= 0 || w.Step > w.Size {
		return w.Size
	}
	return w.Step
}

// Add implements Windower.
func (w *SlidingCountWindow) Add(it Item) []rdf.Triple {
	if wd := w.AddDelta(it); wd != nil {
		return wd.Window
	}
	return nil
}

// AddDelta implements DeltaWindower. The Added/Retracted slices alias the
// emitted window copies and must not be modified.
func (w *SlidingCountWindow) AddDelta(it Item) *WindowDelta {
	step := w.step()
	w.buf = append(w.buf, it.Triple)
	if len(w.buf) > w.Size {
		w.buf = w.buf[len(w.buf)-w.Size:]
	}
	w.seen++
	w.sinceEmit++
	if w.seen < w.Size || (w.seen-w.Size)%step != 0 {
		return nil
	}
	out := make([]rdf.Triple, len(w.buf))
	copy(out, w.buf)
	wd := &WindowDelta{Window: out}
	if w.prev != nil {
		// The previous emission covered items (seen-step-Size, seen-step];
		// this one covers (seen-Size, seen]. The delta is exact: step items
		// in, the step oldest items of the previous window out.
		wd.Incremental = true
		wd.Added = out[len(out)-step:]
		wd.Retracted = w.prev[:step]
	} else {
		wd.Added = out
	}
	w.prev = out
	w.sinceEmit = 0
	return wd
}

// Flush implements Windower: it returns the items that arrived after the
// last emitted window (the tail no emission ever covered), or the whole
// partial buffer when no full window was ever emitted, and resets the
// window state. Flushing never re-delivers items already covered by an
// emitted window.
func (w *SlidingCountWindow) Flush() []rdf.Triple {
	var out []rdf.Triple
	switch {
	case w.seen == 0:
		out = nil
	case w.prev == nil:
		out = w.buf
	case w.sinceEmit > 0:
		// The tail items all sit at the end of buf: sinceEmit < Step <= Size.
		tail := w.buf[len(w.buf)-w.sinceEmit:]
		out = make([]rdf.Triple, len(tail))
		copy(out, tail)
	}
	w.buf = nil
	w.prev = nil
	w.seen = 0
	w.sinceEmit = 0
	return out
}
