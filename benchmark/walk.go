package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"streamrule"
	"streamrule/internal/asp/ground"
	"streamrule/internal/asp/intern"
	"streamrule/internal/asp/solve"
	"streamrule/internal/core"
	"streamrule/internal/dfp"
	"streamrule/internal/reasoner"
	"streamrule/internal/stream"
)

// The layer walk is the benchmark's own copy of what the facade does to a
// window — window, partition, intern, ground or update, solve, project,
// combine, rotate — made only of calls to the layers' exported functions,
// with a span around each call. It exists to attribute window time to
// layers without touching the program; the run compares its answers with the
// facade's on the same windows, so that it cannot drift into measuring a
// different computation.

// walkMode says how a partition's grounding is kept across windows; it
// mirrors which reasoner.R entry point the facade engine uses.
type walkMode int

const (
	walkFull  walkMode = iota // ground from scratch every window (tumbling)
	walkAuto                  // intern the whole sub-window, diff it against the last one, Update (PR, DPR workers)
	walkDelta                 // intern only the windower's delta, Update (Engine and Server tenants)
)

// partWalk is one partition's state: what reasoner.R keeps between windows.
type partWalk struct {
	rec     *recorder
	tab     *intern.Table
	inst    *ground.Instantiator
	arities dfp.Arities
	inpre   map[intern.SymID]bool

	factbuf          []intern.AtomID
	factRef, scratch map[intern.AtomID]int32
	factTot, skipped int
	live             bool // factRef and the grounder describe the last window
	addBuf, retBuf   []intern.AtomID
	addSet, retSet   []intern.AtomID

	interned int // atoms handed to the grounder by dfp, for dfp.items_per_s
	reseeds  int
}

func newPartWalk(rec *recorder, prog *streamrule.Program, tab *intern.Table) (*partWalk, error) {
	ar, err := dfp.InferArities(prog.AST, prog.Inpre)
	if err != nil {
		return nil, err
	}
	inst, err := ground.NewInstantiator(prog.AST, ground.Options{Intern: tab})
	if err != nil {
		return nil, err
	}
	pw := &partWalk{rec: rec, tab: tab, inst: inst, arities: ar, factRef: map[intern.AtomID]int32{}, scratch: map[intern.AtomID]int32{}}
	pw.rekey(prog.Inpre)
	return pw, nil
}

func (pw *partWalk) rekey(inpre []string) {
	pw.inpre = make(map[intern.SymID]bool, len(inpre))
	for _, p := range inpre {
		pw.inpre[pw.tab.Sym(p)] = true
	}
}

// window processes one sub-window and returns the partition's output.
func (pw *partWalk) window(parent, seq int, mode walkMode, win []streamrule.Triple, d *streamrule.Delta) (*streamrule.Output, error) {
	out := &streamrule.Output{}
	var gp *ground.Program
	var err error
	switch {
	case mode == walkFull || !pw.inst.SupportsIncremental() || (d == nil && !pw.live):
		pw.live = false
		ids := pw.internFacts(parent, seq, win, out)
		sp := pw.rec.begin(parent, seq, "ground", "ground")
		gp, err = pw.inst.Ground(ids)
		pw.rec.end(sp)
	case d == nil || !pw.live || !pw.inst.IncrementalReady():
		gp, err = pw.seed(parent, seq, win, out)
	case mode == walkAuto:
		gp, err = pw.diffUpdate(parent, seq, win, out)
	default:
		gp, err = pw.deltaUpdate(parent, seq, win, d, out)
	}
	if err != nil {
		return nil, err
	}
	out.GroundStats = gp.Stats

	sp := pw.rec.begin(parent, seq, "solve", "solve")
	res, err := solve.Solve(gp, solve.Options{})
	pw.rec.end(sp)
	if err != nil {
		return nil, err
	}
	out.SolveStats = res.Stats

	sp = pw.rec.begin(parent, seq, "reasoner", "project")
	out.Answers = make([]*solve.AnswerSet, len(res.Models))
	for i, m := range res.Models {
		ids := m.IDs()
		kept := make([]intern.AtomID, 0, len(ids))
		for _, id := range ids {
			if !pw.inpre[pw.tab.PredNameSym(pw.tab.AtomPred(id))] {
				kept = append(kept, id)
			}
		}
		out.Answers[i] = solve.FromIDs(pw.tab, kept)
	}
	pw.rec.end(sp)
	return out, nil
}

func (pw *partWalk) internFacts(parent, seq int, win []streamrule.Triple, out *streamrule.Output) []intern.AtomID {
	sp := pw.rec.begin(parent, seq, "dfp", "intern")
	ids, skipped := dfp.InternFacts(pw.tab, win, pw.arities, pw.factbuf[:0])
	pw.rec.end(sp)
	pw.factbuf = ids
	pw.interned += len(ids)
	out.Skipped = skipped
	return ids
}

// seed grounds from scratch while seeding the support counts Update needs.
func (pw *partWalk) seed(parent, seq int, win []streamrule.Triple, out *streamrule.Output) (*ground.Program, error) {
	pw.reseeds++
	ids := pw.internFacts(parent, seq, win, out)
	clear(pw.factRef)
	for _, id := range ids {
		pw.factRef[id]++
	}
	pw.factTot, pw.skipped = len(ids), out.Skipped
	sp := pw.rec.begin(parent, seq, "ground", "ground")
	gp, err := pw.inst.GroundIncremental(ids)
	pw.rec.end(sp)
	pw.live = err == nil
	return gp, err
}

// diffUpdate derives the partition's own delta from its fact multisets.
func (pw *partWalk) diffUpdate(parent, seq int, win []streamrule.Triple, out *streamrule.Output) (*ground.Program, error) {
	ids := pw.internFacts(parent, seq, win, out)
	sp := pw.rec.begin(parent, seq, "reasoner", "diff")
	next := pw.scratch
	clear(next)
	for _, id := range ids {
		next[id]++
	}
	add, ret := pw.addSet[:0], pw.retSet[:0]
	for id := range next {
		if pw.factRef[id] == 0 {
			add = append(add, id)
		}
	}
	for id := range pw.factRef {
		if next[id] == 0 {
			ret = append(ret, id)
		}
	}
	pw.addSet, pw.retSet = add, ret
	pw.factRef, pw.scratch = next, pw.factRef
	pw.factTot, pw.skipped = len(ids), out.Skipped
	pw.rec.end(sp)
	return pw.update(parent, seq, win, add, ret, out)
}

// deltaUpdate interns only the triples that entered and left the window.
func (pw *partWalk) deltaUpdate(parent, seq int, win []streamrule.Triple, d *streamrule.Delta, out *streamrule.Output) (*ground.Program, error) {
	sp := pw.rec.begin(parent, seq, "dfp", "intern")
	addIDs, retIDs, skippedDelta := dfp.InternDelta(pw.tab, d.Added, d.Retracted, pw.arities, pw.addBuf[:0], pw.retBuf[:0])
	pw.rec.end(sp)
	pw.addBuf, pw.retBuf = addIDs, retIDs
	pw.interned += len(addIDs) + len(retIDs)

	sp = pw.rec.begin(parent, seq, "reasoner", "diff")
	add, ret := pw.addSet[:0], pw.retSet[:0]
	consistent := true
	for _, id := range retIDs {
		c := pw.factRef[id]
		switch {
		case c <= 0:
			consistent = false
		case c == 1:
			delete(pw.factRef, id)
			ret = append(ret, id)
		default:
			pw.factRef[id] = c - 1
		}
	}
	for _, id := range addIDs {
		c := pw.factRef[id]
		pw.factRef[id] = c + 1
		if c == 0 {
			add = append(add, id)
		}
	}
	pw.addSet, pw.retSet = add, ret
	pw.factTot += len(addIDs) - len(retIDs)
	pw.skipped += skippedDelta
	pw.rec.end(sp)
	if !consistent || pw.factTot+pw.skipped != len(win) {
		return pw.seed(parent, seq, win, out)
	}
	out.Skipped = pw.skipped
	return pw.update(parent, seq, win, add, ret, out)
}

func (pw *partWalk) update(parent, seq int, win []streamrule.Triple, add, ret []intern.AtomID, out *streamrule.Output) (*ground.Program, error) {
	if 2*(len(add)+len(ret)) >= pw.factTot {
		return pw.seed(parent, seq, win, out) // a delta this large costs more than grounding
	}
	sp := pw.rec.begin(parent, seq, "ground", "update")
	gp, err := pw.inst.Update(add, ret)
	pw.rec.end(sp)
	if err != nil {
		var lim *ground.ErrAtomLimit
		if errors.As(err, &lim) || errors.Is(err, ground.ErrNotIncremental) {
			return pw.seed(parent, seq, win, out)
		}
		return nil, err
	}
	out.Incremental = true
	return gp, nil
}

// remap carries the partition's cross-window state through a table rotation.
func (pw *partWalk) remap(rm *intern.Remap, inpre []string) {
	if pw.inst.Remap(rm) {
		pw.live = false
	}
	if pw.live {
		next := pw.scratch
		clear(next)
		for id, c := range pw.factRef {
			nid, ok := rm.Atom(id)
			if !ok {
				pw.live = false
				break
			}
			next[nid] = c
		}
		if pw.live {
			pw.factRef, pw.scratch = next, pw.factRef
		}
	}
	pw.factbuf = pw.factbuf[:0]
	pw.addBuf, pw.retBuf = pw.addBuf[:0], pw.retBuf[:0]
	pw.addSet, pw.retSet = pw.addSet[:0], pw.retSet[:0]
	pw.rekey(inpre)
}

// walker is the benchmark's copy of one engine: reasoner.R when part is nil,
// reasoner.PR otherwise.
type walker struct {
	rec      *recorder
	prog     *streamrule.Program
	tab      *intern.Table
	budget   int
	mode     walkMode
	part     reasoner.Partitioner
	parts    []*partWalk
	parallel bool
	liveBuf  []intern.AtomID

	analyzeMS  float64
	partitions int
	rotations  int
}

// newWalker builds the layer-level copy of the workload's engine. It always
// owns its table, so that it interns what the facade interned instead of
// finding it in the process-wide table the facade pass filled.
func newWalker(rec *recorder, w *spec) (*walker, error) {
	prog, err := streamrule.LoadProgram(w.program, inpre)
	if err != nil {
		return nil, err
	}
	wk := &walker{rec: rec, prog: prog, tab: intern.NewTable(), budget: w.budget}
	sp := rec.begin(-1, 0, "core", "analyze")
	t0 := time.Now()
	an, err := core.Analyze(prog.AST, inpre, 1.0)
	wk.analyzeMS = ms(time.Since(t0))
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	wk.partitions = an.Plan.NumPartitions()

	n := 1
	switch {
	case w.engine == engineR || w.engine == engineServer:
		wk.mode = walkDelta
	default:
		wk.mode = walkAuto
		wk.part = reasoner.NewPlanPartitioner(an.Plan)
		n = wk.part.NumPartitions()
	}
	if w.tumbling() {
		wk.mode = walkFull
	}
	wk.parallel = runtime.GOMAXPROCS(0) >= n
	for i := 0; i < n; i++ {
		pw, err := newPartWalk(rec, prog, wk.tab)
		if err != nil {
			return nil, err
		}
		wk.parts = append(wk.parts, pw)
	}
	return wk, nil
}

// window walks one window through the layers under the given root span.
func (wk *walker) window(root, seq int, wd stream.WindowDelta) (*streamrule.Output, error) {
	if wk.budget > 0 {
		wk.tab.AdvanceEpoch()
	}
	var d *streamrule.Delta
	if wd.Incremental {
		d = &streamrule.Delta{Added: wd.Added, Retracted: wd.Retracted}
	}
	var out *streamrule.Output
	var err error
	if wk.part == nil {
		out, err = wk.parts[0].window(root, seq, wk.mode, wd.Window, d)
	} else {
		out, err = wk.partitioned(root, seq, wd.Window, d)
	}
	if err != nil {
		return nil, err
	}
	if wk.budget > 0 {
		if err := wk.rotate(root, seq, out.Answers); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (wk *walker) partitioned(root, seq int, win []streamrule.Triple, d *streamrule.Delta) (*streamrule.Output, error) {
	out := &streamrule.Output{}
	sp := wk.rec.begin(root, seq, "reasoner", "partition")
	subs, skipped := wk.part.Partition(win)
	wk.rec.end(sp)
	out.Skipped = skipped
	for _, s := range subs {
		out.PartitionSizes = append(out.PartitionSizes, len(s))
		out.RoutedItems += len(s)
	}

	mode := wk.mode
	if d == nil {
		mode = walkFull // PR.ProcessDelta without a delta is Process
	}
	results := make([]*streamrule.Output, len(subs))
	errs := make([]error, len(subs))
	one := func(i int) {
		sp := wk.rec.begin(root, seq, "walk", "partition_reasoner")
		results[i], errs[i] = wk.parts[i].window(sp, seq, mode, subs[i], d)
		wk.rec.end(sp)
	}
	if wk.parallel {
		var wg sync.WaitGroup
		for i := range subs {
			wg.Add(1)
			go func() { defer wg.Done(); one(i) }()
		}
		wg.Wait()
	} else {
		for i := range subs {
			one(i)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	out.Incremental, out.SolveStats.FastPath = true, true
	per := make([][]*solve.AnswerSet, len(results))
	for i, r := range results {
		per[i] = r.Answers
		out.Incremental = out.Incremental && r.Incremental
		out.SolveStats.FastPath = out.SolveStats.FastPath && r.SolveStats.FastPath
		out.GroundStats.Atoms += r.GroundStats.Atoms
		out.GroundStats.Rules += r.GroundStats.Rules
		out.GroundStats.CertainFacts += r.GroundStats.CertainFacts
		out.GroundStats.Iterations += r.GroundStats.Iterations
		out.SolveStats.Add(r.SolveStats)
	}
	sp = wk.rec.begin(root, seq, "reasoner", "combine")
	out.Answers = reasoner.Combine(per, reasoner.DefaultMaxCombinations)
	wk.rec.end(sp)
	return out, nil
}

// rotate compacts the walker's table once it outgrows the budget, keeping
// what the grounders, the fact multisets and this window's answers hold.
func (wk *walker) rotate(root, seq int, answers []*solve.AnswerSet) error {
	if wk.tab.NumAtoms() > wk.budget {
		sp := wk.rec.begin(root, seq, "intern", "rotate")
		live := wk.liveBuf[:0]
		for _, pw := range wk.parts {
			live = pw.inst.LiveAtomIDs(live)
			if pw.live {
				for id := range pw.factRef {
					live = append(live, id)
				}
			}
		}
		for _, a := range answers {
			live = append(live, a.IDs()...)
		}
		rm, err := wk.tab.Rotate(live)
		wk.liveBuf = live[:0]
		if err != nil {
			return err
		}
		for _, pw := range wk.parts {
			pw.remap(rm, wk.prog.Inpre)
		}
		for _, a := range answers {
			if !a.Remap(rm) {
				return fmt.Errorf("walk: answer set lost atoms in table rotation")
			}
		}
		wk.rotations++
		wk.rec.end(sp)
	}
	sp := wk.rec.begin(root, seq, "reasoner", "project")
	for _, a := range answers {
		a.Atoms() // a budgeted engine materialises its answers before the next rotation
	}
	wk.rec.end(sp)
	return nil
}

// walkDriver runs the walker under stream.WindowsDelta, the stream layer's
// own source → windower loop, which is what Pipeline.Run calls.
type walkDriver struct {
	w    *spec
	wk   *walker
	last time.Duration
	seq  int
	// interned is the cumulative count of atoms dfp produced, per window.
	interned []int
}

func (d *walkDriver) run(ctx context.Context, src []streamrule.Triple, handle func([]streamrule.Triple, *streamrule.Output) error) error {
	var windower stream.Windower = &stream.CountWindow{Size: d.w.size}
	if !d.w.tumbling() {
		windower = &stream.SlidingCountWindow{Size: d.w.size, Step: d.w.step}
	}
	rec := d.wk.rec
	root := rec.begin(-1, d.seq, "walk", "window")
	sp := rec.begin(root, d.seq, "stream", "window")
	err := stream.WindowsDelta(ctx, &stream.SliceSource{Triples: src}, nil, windower, func(wd stream.WindowDelta) error {
		rec.end(sp)
		t0 := time.Now()
		out, err := d.wk.window(root, d.seq, wd)
		d.last = time.Since(t0)
		rec.end(root)
		if err != nil {
			return err
		}
		total := 0
		for _, pw := range d.wk.parts {
			total += pw.interned
		}
		d.interned = append(d.interned, total)
		err = handle(wd.Window, out)
		d.seq++
		root = rec.begin(-1, d.seq, "walk", "window")
		sp = rec.begin(root, d.seq, "stream", "window")
		return err
	})
	// The spans opened for a window that never completed count for nothing.
	rec.drop(sp)
	rec.drop(root)
	return err
}

// internedTimed is how many atoms dfp produced after the warm-up windows.
func (d *walkDriver) internedTimed(warm int) int {
	if len(d.interned) <= warm {
		return 0
	}
	return d.interned[len(d.interned)-1] - d.interned[warm-1]
}

func (d *walkDriver) lastWindow() time.Duration { return d.last }

func (d *walkDriver) stats() streamrule.MemoryStats {
	return streamrule.MemoryStats{Budget: d.w.budget, Table: d.wk.tab.Stats()}
}

func (d *walkDriver) transport() (streamrule.TransportStats, bool) {
	return streamrule.TransportStats{}, false
}

func (d *walkDriver) close() {}
