// Memory management for unbounded streams: epoch advance, budget-triggered
// interning-table rotation, and the remapping of every piece of
// cross-window reasoner state that holds interned IDs.
//
// A reasoner with Config.MemoryBudget > 0 owns a private interning table
// (NewR/NewPR arrange that). Each window advances the table's epoch; after
// the window is processed, the table is rotated when its atom count exceeds
// the budget. The live set passed to intern.Table.Rotate is everything the
// reasoner still references: the grounder's maintained stores and program
// facts, the fact-multiset reference counts of the incremental path, and the
// answer sets of the output about to be returned (so callers keep valid
// IDs). PR coordinates a single rotation for its k partition reasoners —
// they share one table, so rotation may only run after all have quiesced.

package reasoner

import (
	"fmt"

	"streamrule/internal/asp/intern"
	"streamrule/internal/asp/solve"
)

// MemoryStats surfaces the memory metrics of a reasoner: the configured
// budget and a snapshot of its interning table (live/peak entries,
// rotations, cumulative remap time).
type MemoryStats struct {
	// Budget is the configured MemoryBudget in table entries (0 = no
	// bound).
	Budget int
	// Table is the snapshot of the reasoner's interning table. For the
	// distributed reasoner it describes the coordinator's answer table;
	// worker tables are remote (see WindowResp.LiveAtoms for their
	// per-window snapshots).
	Table intern.TableStats
	// Transport carries the wire metrics of a distributed reasoner (bytes
	// shipped, dictionary hit rate, fallbacks); nil for in-process engines.
	Transport *TransportStats
}

// Stats returns the reasoner's memory metrics.
func (r *R) Stats() MemoryStats {
	return MemoryStats{Budget: r.cfg.MemoryBudget, Table: r.tab.Stats()}
}

// Stats returns the parallel reasoner's memory metrics. All partition
// reasoners share one table, so a single snapshot describes them all.
func (pr *PR) Stats() MemoryStats {
	return MemoryStats{Budget: pr.budget, Table: pr.reasoners[0].tab.Stats()}
}

// beginWindow opens a new table epoch for a budgeted reasoner, so that
// "touched in the current epoch" coincides with "referenced by this window".
func (r *R) beginWindow() {
	if r.cfg.MemoryBudget > 0 {
		r.tab.AdvanceEpoch()
	}
}

func (pr *PR) beginWindow() {
	if pr.budget > 0 {
		pr.reasoners[0].tab.AdvanceEpoch()
	}
}

// maybeRotate rotates the table after a window when the budget is exceeded.
// Rotation failures (a shared default table, concurrent misuse) disable
// nothing: the reasoner keeps running correctly, merely without eviction.
//
// The answer sets being returned are remapped, so their IDs stay valid
// until the NEXT window's rotation. Sets a caller retains across windows
// cannot be remapped (the reasoner no longer tracks them), so budgeted
// windows additionally materialize their answers eagerly: the textual
// atoms, keys, and key-based operations of retained sets remain valid
// forever; only their raw IDs go stale.
func (r *R) maybeRotate(out *Output) {
	if r.cfg.MemoryBudget <= 0 {
		return
	}
	if r.tab.NumAtoms() > r.cfg.MemoryBudget {
		_ = r.rotateWith(out.Answers)
	}
	materializeAnswers(out.Answers)
}

func (pr *PR) maybeRotate(out *Output) {
	if pr.budget <= 0 {
		return
	}
	if pr.reasoners[0].tab.NumAtoms() > pr.budget {
		_ = pr.rotateWith(out.Answers)
	}
	materializeAnswers(out.Answers)
}

// materializeAnswers forces the lazy atom/key rendering of the answer sets
// about to be returned, detaching their user-visible content from future
// table rotations.
func materializeAnswers(answers []*solve.AnswerSet) {
	for _, a := range answers {
		a.Atoms()
	}
}

// Rotate compacts the reasoner's interning table to its live entries
// immediately, regardless of budget — the manual hook for cadence-based
// eviction. It opens a fresh epoch first (between windows nothing is in
// flight, so only the reported live state is kept) and invalidates the
// interned IDs of previously returned outputs (their materialized atoms
// remain valid); call it between windows only. The table must be private
// (ground.Options.Intern): rotating the process-wide default table is
// refused.
func (r *R) Rotate() error {
	r.tab.AdvanceEpoch()
	return r.rotateWith(nil)
}

// Rotate is the manual rotation hook of the parallel reasoner; see R.Rotate.
// It must not run concurrently with Process/ProcessDelta.
func (pr *PR) Rotate() error {
	pr.reasoners[0].tab.AdvanceEpoch()
	return pr.rotateWith(nil)
}

// rotateWith rotates the table keeping the reasoner's live state plus the
// given answer sets, then remaps everything, answers included.
func (r *R) rotateWith(answers []*solve.AnswerSet) error {
	live := r.appendLive(r.liveBuf[:0])
	live = appendAnswerIDs(live, answers, r.tab)
	rm, err := r.tab.Rotate(live)
	r.liveBuf = live[:0]
	if err != nil {
		return err
	}
	r.applyRemap(rm)
	return remapAnswers(answers, rm, r.tab)
}

func (pr *PR) rotateWith(answers []*solve.AnswerSet) error {
	tab := pr.reasoners[0].tab
	live := pr.liveBuf[:0]
	for _, r := range pr.reasoners {
		live = r.appendLive(live)
	}
	live = appendAnswerIDs(live, answers, tab)
	rm, err := tab.Rotate(live)
	pr.liveBuf = live[:0]
	if err != nil {
		return err
	}
	for _, r := range pr.reasoners {
		r.applyRemap(rm)
	}
	return remapAnswers(answers, rm, tab)
}

// appendAnswerIDs collects the IDs of the answer sets that live on the
// rotating table. Sets on a foreign table (possible only through exotic
// custom combiners) are unaffected by the rotation and are left alone.
func appendAnswerIDs(dst []intern.AtomID, answers []*solve.AnswerSet, tab *intern.Table) []intern.AtomID {
	for _, a := range answers {
		if a.Table() == tab {
			dst = append(dst, a.IDs()...)
		}
	}
	return dst
}

// appendLive collects every atom ID this reasoner references across windows.
func (r *R) appendLive(dst []intern.AtomID) []intern.AtomID {
	dst = r.inst.LiveAtomIDs(dst)
	if r.incLive {
		for id := range r.factRef {
			dst = append(dst, id)
		}
	}
	return dst
}

// applyRemap rewrites the reasoner's cross-window state to the rotated IDs.
func (r *R) applyRemap(rm *intern.Remap) {
	if r.inst.Remap(rm) {
		// The grounder dropped its incremental state; the next window must
		// re-seed rather than Update.
		r.incLive = false
	}
	if r.incLive {
		next := r.refScratch
		if next == nil {
			next = make(map[intern.AtomID]int32, len(r.factRef))
		}
		clear(next)
		ok := true
		for id, c := range r.factRef {
			nid, live := rm.Atom(id)
			if !live {
				ok = false
				break
			}
			next[nid] = c
		}
		if ok {
			r.factRef, r.refScratch = next, r.factRef
		} else {
			// The refcounts listed their keys as live, so a miss means the
			// rotation was driven by someone else's live set; fall back to
			// re-seeding.
			r.incLive = false
		}
	}
	// Per-window ID scratch is stale after a rotation.
	r.factbuf = r.factbuf[:0]
	r.addBuf, r.retBuf = r.addBuf[:0], r.retBuf[:0]
	r.addSet, r.retSet = r.addSet[:0], r.retSet[:0]
	// The input/output projection sets are keyed by predicate-name symbols;
	// re-intern them from the configured names (predicate-name symbols are
	// pinned by rotation, so this is a pure re-keying, never growth).
	inpre := make(map[intern.SymID]bool, len(r.cfg.Inpre))
	for _, p := range r.cfg.Inpre {
		inpre[r.tab.Sym(p)] = true
	}
	r.inpre = inpre
	if r.outputs != nil {
		outputs := make(map[intern.SymID]bool, len(r.cfg.OutputPreds))
		for _, p := range r.cfg.OutputPreds {
			outputs[r.tab.Sym(p)] = true
		}
		r.outputs = outputs
	}
}

// remapAnswers rewrites the IDs of the answer sets about to be returned
// (skipping sets on a foreign table). Their IDs were part of the live set,
// so a miss indicates concurrent mutation of a set the reasoner still owns.
func remapAnswers(answers []*solve.AnswerSet, rm *intern.Remap, tab *intern.Table) error {
	for _, a := range answers {
		if a.Table() != tab {
			continue
		}
		if !a.Remap(rm) {
			return fmt.Errorf("reasoner: answer set lost atoms in table rotation")
		}
	}
	return nil
}
