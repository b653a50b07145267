package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"streamrule"
	"streamrule/internal/bench"
)

var inpre = bench.Inpre

// errStop ends Pipeline.Run from the handle callback once the timed phase is
// over.
var errStop = errors.New("benchmark: timed phase over")

// timedReasoner is the wrapper Reasoner handed to Pipeline: it times every
// Reason/ReasonDelta call, and every Submit→Collect pair of a pipelined
// engine, from outside. With a recorder it also leaves one root span per
// window and, for a pipelined engine, the submit and collect spans under it.
type timedReasoner struct {
	inner streamrule.DeltaReasoner
	piped streamrule.PipelinedReasoner // nil unless inner pipelines
	rec   *recorder

	durs      []time.Duration // one per completed window, in order
	submitted []pending
	submitMS  []float64
	collectMS []float64
	seq       int
}

type pending struct {
	at        time.Time
	root, seq int
}

func newTimedReasoner(inner streamrule.DeltaReasoner, rec *recorder) *timedReasoner {
	t := &timedReasoner{inner: inner, rec: rec}
	if p, ok := inner.(streamrule.PipelinedReasoner); ok && p.PipelineDepth() > 1 {
		t.piped = p
	}
	return t
}

func (t *timedReasoner) Reason(w []streamrule.Triple) (*streamrule.Output, error) {
	return t.ReasonDelta(w, nil)
}

func (t *timedReasoner) ReasonDelta(w []streamrule.Triple, d *streamrule.Delta) (*streamrule.Output, error) {
	root := t.rec.begin(-1, t.seq, "facade", "window")
	t.seq++
	t0 := time.Now()
	out, err := t.inner.ReasonDelta(w, d)
	t.durs = append(t.durs, time.Since(t0))
	t.rec.end(root)
	return out, err
}

func (t *timedReasoner) Submit(w []streamrule.Triple, d *streamrule.Delta) error {
	root := t.rec.begin(-1, t.seq, "facade", "window")
	sp := t.rec.begin(root, t.seq, "transport", "submit")
	t.seq++
	t0 := time.Now()
	err := t.piped.Submit(w, d)
	t.submitMS = append(t.submitMS, ms(time.Since(t0)))
	t.rec.end(sp)
	t.submitted = append(t.submitted, pending{at: t0, root: root, seq: t.seq - 1})
	return err
}

func (t *timedReasoner) Collect() (*streamrule.Output, error) {
	head := t.submitted[0]
	t.submitted = t.submitted[1:]
	sp := t.rec.begin(head.root, head.seq, "transport", "collect_wait")
	t0 := time.Now()
	out, err := t.piped.Collect()
	t.collectMS = append(t.collectMS, ms(time.Since(t0)))
	t.durs = append(t.durs, time.Since(head.at))
	t.rec.end(sp)
	t.rec.end(head.root)
	return out, err
}

func (t *timedReasoner) InFlight() int { return len(t.submitted) }

func (t *timedReasoner) PipelineDepth() int {
	if t.piped == nil {
		return 1
	}
	return t.piped.PipelineDepth()
}

// facadeDriver measures the public facade: Pipeline.Run over the workload's
// engine, with only the timing wrapper between them.
type facadeDriver struct {
	w         *spec
	tr        *timedReasoner
	memory    func() streamrule.MemoryStats
	wire      func() streamrule.TransportStats // nil unless distributed
	closeFunc func()
}

// newFacadeDriver loads the workload's program and constructs its engine
// through the public facade: the part of set-up before the warm-up windows.
func newFacadeDriver(w *spec, rec *recorder) (driver, error) {
	p, err := streamrule.LoadProgram(w.program, inpre)
	if err != nil {
		return nil, err
	}
	var opts []streamrule.Option
	if w.budget > 0 {
		opts = append(opts, streamrule.WithMemoryBudget(w.budget))
	}
	d := &facadeDriver{w: w, closeFunc: func() {}}
	var eng streamrule.DeltaReasoner
	switch w.engine {
	case engineR:
		e, err := streamrule.NewEngine(p, opts...)
		if err != nil {
			return nil, err
		}
		eng, d.memory = e, e.Stats
	case enginePR:
		e, err := streamrule.NewParallelEngine(p, opts...)
		if err != nil {
			return nil, err
		}
		eng, d.memory = e, e.Stats
	case engineDPR:
		e, stop, err := newLoopbackEngine(p, opts)
		if err != nil {
			return nil, err
		}
		eng, d.memory, d.wire, d.closeFunc = e, e.Stats, e.TransportStats, stop
	default:
		return nil, fmt.Errorf("workload %s is not a single pipeline", w.name)
	}
	d.tr = newTimedReasoner(eng, rec)
	return d, nil
}

// loopbackWorkers is the DPR fleet: one worker per partition of P', and no
// more than the machine's two cores.
const loopbackWorkers = 2

// newLoopbackEngine starts the in-process workers on 127.0.0.1 and a
// distributed engine over them. stop closes the engine, then the workers, and
// returns once every Serve has.
func newLoopbackEngine(p *streamrule.Program, opts []streamrule.Option) (e *streamrule.DistributedEngine, stop func(), err error) {
	var servers []*streamrule.WorkerServer
	done := make(chan error, loopbackWorkers)
	stopWorkers := func() {
		for _, s := range servers {
			s.Close()
		}
		for range servers {
			<-done
		}
	}
	var addrs []string
	for i := 0; i < loopbackWorkers; i++ {
		s, err := streamrule.NewWorkerServer("127.0.0.1:0")
		if err != nil {
			stopWorkers()
			return nil, nil, err
		}
		servers = append(servers, s)
		addrs = append(addrs, s.Addr())
		go func() { done <- s.Serve() }()
	}
	e, err = streamrule.NewDistributedEngine(p, addrs, append(opts, streamrule.WithMaxInFlight(2))...)
	if err != nil {
		stopWorkers()
		return nil, nil, err
	}
	return e, func() { e.Close(); stopWorkers() }, nil
}

func (d *facadeDriver) run(ctx context.Context, src []streamrule.Triple, handle func([]streamrule.Triple, *streamrule.Output) error) error {
	pl := &streamrule.Pipeline{Source: src, WindowSize: d.w.size, WindowStep: d.w.step, Reasoner: d.tr}
	return pl.Run(ctx, handle)
}

func (d *facadeDriver) lastWindow() time.Duration { return d.tr.durs[len(d.tr.durs)-1] }

func (d *facadeDriver) stats() streamrule.MemoryStats { return d.memory() }

func (d *facadeDriver) transport() (streamrule.TransportStats, bool) {
	if d.wire == nil {
		return streamrule.TransportStats{}, false
	}
	return d.wire(), true
}

func (d *facadeDriver) close() { d.closeFunc() }

// sums accumulates what the engine reports about its own windows.
type sums struct {
	windows, items     int
	routed, skipped    int
	skew               float64 // Σ max/mean sub-window size
	criticalPath       time.Duration
	answers            int
	groundRules        int
	groundCertain      int
	incremental        int
	fastPath           int
	solve              streamrule.SolveStats
	deltaItems         int
	partitionedWindows int
}

func (s *sums) add(window int, step int, out *streamrule.Output) {
	s.windows++
	s.items += window
	s.deltaItems += 2 * step
	s.skipped += out.Skipped
	if n := len(out.PartitionSizes); n > 0 {
		s.partitionedWindows++
		s.routed += out.RoutedItems
		biggest := 0
		for _, p := range out.PartitionSizes {
			biggest = max(biggest, p)
		}
		s.skew += ratio(float64(biggest)*float64(n), float64(out.RoutedItems))
	}
	s.criticalPath += out.Latency.CriticalPath
	s.answers += len(out.Answers)
	s.groundRules += out.GroundStats.Rules
	s.groundCertain += out.GroundStats.CertainFacts
	if out.Incremental {
		s.incremental++
	}
	if out.SolveStats.FastPath {
		s.fastPath++
	}
	s.solve.Add(out.SolveStats)
}

// pass is what one run of a single-pipeline workload through the facade
// measured.
type pass struct {
	setupS   float64
	elapsed  time.Duration // timed phase
	windowMS []float64     // wall time of each timed window's reasoning
	cycleS   []float64     // timed-phase time from the window before to this one: windowing included
	all      sums
	exact    sums // the first spec.exact timed windows: repeats exactly for a seed
	kept     []*streamrule.Output
	samples  []sample
	heapMB   float64 // largest live heap at the workload's fixed sample windows

	memBefore, memAfter   runtime.MemStats
	tabBefore, tabAfter   streamrule.MemoryStats
	wireBefore, wireAfter streamrule.TransportStats
}

// streamSeed separates the streams of a run's set-up repetitions, so that a
// repeated set-up does not find its atoms already interned by the last one.
func streamSeed(seed int64, rep int) int64 { return seed*8 + int64(rep) }

// setupReps is how many times a run sets up; setup_s is their median. The
// last one is the set-up of the engine the timed phase then uses.
const setupReps = 3

func windowItems(w *spec, windows int) int {
	return w.size + (windows-1)*w.step
}

// driver is what measure needs of the thing that turns a stream into
// per-window outputs: the facade (Pipeline plus an engine) or the layer walk.
type driver interface {
	// run consumes src, calling handle with every completed window and its
	// output, until src is used up or handle returns an error.
	run(ctx context.Context, src []streamrule.Triple, handle func([]streamrule.Triple, *streamrule.Output) error) error
	// lastWindow is the wall time of the window handle is being called for.
	lastWindow() time.Duration
	stats() streamrule.MemoryStats
	transport() (streamrule.TransportStats, bool)
	close()
}

// measure builds a driver (the first part of set-up), runs the warm-up
// windows (the rest of it) and then times the given number of windows, or as
// many of them as seconds allow. With windows == 0 it stops after the
// warm-up: a set-up repetition.
func measure(w *spec, seed int64, rep, windows int, seconds float64, build func() (driver, error)) (*pass, driver, error) {
	t0 := time.Now()
	drv, err := build()
	if err != nil {
		return nil, nil, err
	}
	defer drv.close()
	buildTime := time.Since(t0)

	// Streams are generated outside set-up and the timed phase.
	next := w.traffic(streamSeed(seed, rep), w.size)
	left := w.warm + windows
	generate := func() []streamrule.Triple {
		n := left
		if w.chunk > 0 {
			n = min(n, w.chunk)
		}
		left -= n
		return next(windowItems(w, n))
	}
	src := generate()

	p := &pass{}
	var sw stopwatch
	var warmRun, lastCycle time.Duration
	n := 0
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runStart := time.Now()
	handle := func(win []streamrule.Triple, out *streamrule.Output) error {
		n++
		if n < w.warm {
			return nil
		}
		if n == w.warm {
			warmRun = time.Since(runStart)
			if windows == 0 {
				cancel()
				return errStop
			}
			// Collecting here, outside the timed phase, starts every run's
			// phase from the same heap state: what set-up left behind no
			// longer decides when the collector runs or how high memory peaks.
			runtime.GC()
			runtime.ReadMemStats(&p.memBefore)
			p.tabBefore = drv.stats()
			p.wireBefore, _ = drv.transport()
			sw.start()
			return nil
		}
		k := n - w.warm
		p.windowMS = append(p.windowMS, ms(drv.lastWindow()))
		p.cycleS = append(p.cycleS, (sw.elapsed() - lastCycle).Seconds())
		lastCycle = sw.elapsed()
		p.all.add(len(win), w.step, out)
		if k <= w.exact {
			p.exact.add(len(win), w.step, out)
			p.kept = append(p.kept, out)
		}
		if k%oracleEvery == 0 && len(p.samples) < maxSamples {
			p.samples = append(p.samples, sample{seq: k, window: win, answers: out.Answers})
		}
		if k%w.heapEvery == 0 && k <= w.heapLast {
			sw.stop()
			p.heapMB = max(p.heapMB, liveHeapMB())
			sw.start()
		}
		if k == windows || sw.elapsed().Seconds() >= seconds {
			cancel()
			return errStop
		}
		return nil
	}
	for {
		if n >= w.warm {
			sw.start()
		}
		err := drv.run(ctx, src, handle)
		sw.stop()
		if errors.Is(err, errStop) || (err == nil && left == 0) {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		src = generate()
	}
	if n < w.warm+min(windows, 1) {
		return nil, nil, fmt.Errorf("%s: stream ended after %d windows, before the first timed one", w.name, n)
	}
	p.setupS = (buildTime + warmRun).Seconds()
	p.elapsed = sw.elapsed()
	if windows == 0 {
		return p, drv, nil
	}
	runtime.ReadMemStats(&p.memAfter)
	p.tabAfter = drv.stats()
	p.wireAfter, _ = drv.transport()
	if p.heapMB == 0 {
		p.heapMB = liveHeapMB() // the run ended before the first sample window
	}
	for i := range p.samples {
		p.samples[i].digest = digest(p.samples[i].answers)
	}
	return p, drv, nil
}

// exactDigests are the digests of the first spec.exact timed windows.
func (p *pass) exactDigests() []string {
	out := make([]string, len(p.kept))
	for i, o := range p.kept {
		out[i] = digest(o.Answers)
	}
	return out
}
