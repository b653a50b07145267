// Conflict-driven nogood learning (CDNL): the third solving engine.
//
// The worklist engine (propagate.go) backtracks chronologically and rediscovers
// the same dead ends in every branch; positive loops survive propagation and
// are only refuted by the reduct test after a full candidate has been built.
// The engine here is the classic CDCL loop adapted to answer-set semantics:
//
//   - every implication records a reason (the rule, cardinality bound, support
//     condition, or clause that forced it) and the decision level it was made
//     at;
//   - a conflict is resolved by 1UIP resolution over the trail (conflict.go),
//     yielding an asserting clause and a non-chronological backjump level;
//   - decisions follow VSIDS-style activity (bumped during analysis, decayed
//     per conflict) instead of the static occurrence-count order;
//   - at each propagation fixpoint, source-pointer based unfounded-set
//     detection (unfounded.go) falsifies positive loops and materializes the
//     corresponding loop nogoods, so non-disjunctive candidates are stable by
//     construction and skip the reduct test entirely;
//   - learned clauses live in a managed DB (clausedb.go) with activity-based
//     forgetting that keeps glue clauses (LBD <= 2).
//
// Each Solve call starts from an empty clause DB and occurrence-seeded
// activity, so a window's search depends only on its own ground program.
//
// Enumeration uses blocking clauses over decision literals: after each total
// assignment the negation of its decisions is added as a permanent clause and
// handled like a conflict, which walks the search through every candidate
// exactly once without restarts.
package solve

// Reason kinds recorded per implied atom for conflict analysis.
const (
	rkNone     uint8 = iota
	rkDecision       // branching decision, no antecedents
	rkRule           // pi = rule index: forward firing or contraposition
	rkChoice         // pi = rule index: cardinality-bound propagation
	rkSupport        // pi = atom index: no rule can support the atom
	rkClause         // pi = clause index: unit propagation on a clause
)

// lit encodes a literal over local atom indices: atom<<1 | 1 for "atom is
// true", atom<<1 for "atom is false".
func mkLit(a int, pos bool) int32 {
	l := int32(a) << 1
	if pos {
		l |= 1
	}
	return l
}

func litAtom(l int32) int  { return int(l >> 1) }
func litPos(l int32) bool  { return l&1 == 1 }
func litNeg(l int32) int32 { return l ^ 1 }

// litFalse reports whether the literal is false under the current assignment.
func (cd *cdnl) litFalse(l int32) bool {
	v := cd.s.assign[litAtom(l)]
	if litPos(l) {
		return v == fls
	}
	return v == tru
}

// litTrue reports whether the literal is true under the current assignment.
func (cd *cdnl) litTrue(l int32) bool {
	v := cd.s.assign[litAtom(l)]
	if litPos(l) {
		return v == tru
	}
	return v == fls
}

// cdnl is the conflict-driven engine state, attached to a solver when
// Options.CDNL is set.
type cdnl struct {
	s *solver
	n int

	// Per-atom assignment metadata.
	level   []int32 // decision level of the assignment
	reasonK []uint8 // reason kind
	reasonI []int32 // reason payload (rule/atom/clause index)
	posIn   []int32 // trail position of the assignment

	trailLim []int32 // trail length at each decision
	qhead    int     // clause-propagation cursor into the trail

	// Pending reason, consumed by onAssign at the next solver.set.
	pk uint8
	pi int32

	// Conflict description, filled by the note* helpers at detection sites:
	// a clause whose literals are all false.
	cLits []int32

	// VSIDS decision heuristic.
	act    []float64
	varInc float64
	heap   []int32 // binary max-heap of atom indices by activity
	hpos   []int32 // heap position per atom, -1 = not in heap
	phase  []int8  // saved polarity per atom

	// Clause DB (clausedb.go).
	db          []clause
	watch       [][]int32 // per literal: indices of clauses watching it
	learnedLive int
	maxLearned  int
	claInc      float64

	// Stability bypass: disjunctive programs (and, defensively, any state
	// where the unfounded machinery reported a broken invariant) verify
	// every total candidate with the reduct test, like the other engines.
	checkStability bool

	// Unfounded-set machinery (unfounded.go); nil scc arrays when bypassed.
	sccID       []int32   // nontrivial SCC index per atom, -1 = trivial
	sccAtoms    [][]int32 // atoms per nontrivial SCC
	sccDirty    []bool
	dirtyQ      []int32
	hasLoopHead []bool  // per rule: some head atom is in a nontrivial SCC
	fStamp      []int32 // per-atom founded stamp
	rStamp      []int32 // per-rule visited stamp
	needPos     []int32 // per-rule count of in-SCC pos atoms not yet founded
	fEpoch      int32
	uQ          []int32 // founded-propagation worklist scratch
	uSet        []int32 // unfounded set scratch
	tail        []int32 // loop-clause killer tail scratch

	// Conflict-analysis scratch (conflict.go).
	seen      []bool
	outLearnt []int32
	rbuf      []int32
	lbdStamp  []int32
	lbdEpoch  int32
}

// newCDNL wires the engine for one Solve call: stability mode, SCCs, and
// the decision heap seeded with occurrence-count activity.
func newCDNL(s *solver) *cdnl {
	n := len(s.ids)
	cd := &cdnl{
		s: s, n: n,
		level:    make([]int32, n),
		reasonK:  make([]uint8, n),
		reasonI:  make([]int32, n),
		posIn:    make([]int32, n),
		act:      make([]float64, n),
		varInc:   1.0,
		claInc:   1.0,
		hpos:     make([]int32, n),
		phase:    make([]int8, n),
		watch:    make([][]int32, 2*n),
		seen:     make([]bool, n),
		fStamp:   make([]int32, n),
		rStamp:   make([]int32, len(s.rules)),
		needPos:  make([]int32, len(s.rules)),
		lbdStamp: make([]int32, n+2),
	}
	cd.maxLearned = max(len(s.rules), 256)
	for i := range s.rules {
		r := &s.rules[i]
		if !r.choice && len(r.head) > 1 {
			cd.checkStability = true
			break
		}
	}
	if !cd.checkStability {
		cd.buildSCCs()
	}
	// Initial activity mirrors the worklist branch order (occurrence count),
	// scaled so that the first conflict bump dominates it.
	for a := 0; a < n; a++ {
		cd.phase[a] = tru
		occ := len(s.occHead.of(a)) + len(s.occPos.of(a)) + len(s.occNeg.of(a))
		cd.act[a] = float64(occ) * 1e-9
		cd.heapPush(int32(a))
	}
	return cd
}

func (cd *cdnl) curLevel() int32 { return int32(len(cd.trailLim)) }

// pend stages the reason for the next assignment.
func (cd *cdnl) pend(k uint8, i int32) {
	cd.pk, cd.pi = k, i
}

// onAssign records level, reason, and trail position for a fresh assignment
// and marks unfounded bookkeeping dirty as needed. Called from solver.set.
func (cd *cdnl) onAssign(a int) {
	cd.level[a] = cd.curLevel()
	cd.reasonK[a] = cd.pk
	cd.reasonI[a] = cd.pi
	cd.posIn[a] = int32(len(cd.s.trail) - 1)
}

// onUnassign saves the phase and re-inserts the atom into the decision heap.
// Called from solver.undoTo.
func (cd *cdnl) onUnassign(a int, v int8) {
	cd.phase[a] = v
	if cd.hpos[a] < 0 {
		cd.heapPush(int32(a))
	}
}

// onUndone clamps the clause-propagation cursor after a trail unwind.
func (cd *cdnl) onUndone() {
	if cd.qhead > len(cd.s.trail) {
		cd.qhead = len(cd.s.trail)
	}
}

// markRuleDirty flags the SCCs of a rule's loop heads after the rule's body
// acquired its first false literal (its support died). Called from
// solver.sourceDiedBody.
func (cd *cdnl) markRuleDirty(ri int32) {
	if cd.sccID == nil || !cd.hasLoopHead[ri] {
		return
	}
	for _, h := range cd.s.rules[ri].head {
		if c := cd.sccID[h]; c >= 0 && !cd.sccDirty[c] {
			cd.sccDirty[c] = true
			cd.dirtyQ = append(cd.dirtyQ, c)
		}
	}
}

// --- VSIDS heap -------------------------------------------------------------

func (cd *cdnl) heapLess(x, y int32) bool {
	if cd.act[x] != cd.act[y] {
		return cd.act[x] > cd.act[y]
	}
	return x < y // deterministic tie-break
}

func (cd *cdnl) heapPush(a int32) {
	cd.hpos[a] = int32(len(cd.heap))
	cd.heap = append(cd.heap, a)
	cd.heapUp(int(cd.hpos[a]))
}

func (cd *cdnl) heapUp(i int) {
	a := cd.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !cd.heapLess(a, cd.heap[p]) {
			break
		}
		cd.heap[i] = cd.heap[p]
		cd.hpos[cd.heap[i]] = int32(i)
		i = p
	}
	cd.heap[i] = a
	cd.hpos[a] = int32(i)
}

func (cd *cdnl) heapDown(i int) {
	a := cd.heap[i]
	n := len(cd.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && cd.heapLess(cd.heap[c+1], cd.heap[c]) {
			c++
		}
		if !cd.heapLess(cd.heap[c], a) {
			break
		}
		cd.heap[i] = cd.heap[c]
		cd.hpos[cd.heap[i]] = int32(i)
		i = c
	}
	cd.heap[i] = a
	cd.hpos[a] = int32(i)
}

func (cd *cdnl) heapPop() int32 {
	a := cd.heap[0]
	last := len(cd.heap) - 1
	cd.heap[0] = cd.heap[last]
	cd.hpos[cd.heap[0]] = 0
	cd.heap = cd.heap[:last]
	cd.hpos[a] = -1
	if last > 0 {
		cd.heapDown(0)
	}
	return a
}

func (cd *cdnl) bumpVar(a int) {
	cd.act[a] += cd.varInc
	if cd.act[a] > 1e100 {
		for i := range cd.act {
			cd.act[i] *= 1e-100
		}
		cd.varInc *= 1e-100
	}
	if cd.hpos[a] >= 0 {
		cd.heapUp(int(cd.hpos[a]))
	}
}

func (cd *cdnl) decayActivities() {
	cd.varInc *= 1 / 0.95
	cd.claInc *= 1 / 0.999
}

// pickBranch returns the unassigned atom with the highest activity, or -1
// when the assignment is total.
func (cd *cdnl) pickBranch() int {
	for len(cd.heap) > 0 {
		a := cd.heapPop()
		if cd.s.assign[a] == undef {
			return int(a)
		}
	}
	return -1
}

// decide opens a new decision level and assigns the atom its saved phase.
func (cd *cdnl) decide(a int) {
	cd.trailLim = append(cd.trailLim, int32(len(cd.s.trail)))
	cd.pend(rkDecision, 0)
	cd.s.set(a, cd.phase[a])
}

// cancelUntil unwinds the trail back to the given decision level.
func (cd *cdnl) cancelUntil(lvl int32) {
	if cd.curLevel() <= lvl {
		return
	}
	cd.s.undoTo(int(cd.trailLim[lvl]))
	cd.trailLim = cd.trailLim[:lvl]
}

// imply asserts a literal with the given reason.
func (cd *cdnl) imply(l int32, k uint8, i int32) {
	cd.pend(k, i)
	if litPos(l) {
		cd.s.set(litAtom(l), tru)
	} else {
		cd.s.set(litAtom(l), fls)
	}
	cd.s.out.Stats.Propagations++
}

// --- conflict descriptions --------------------------------------------------

// ruleClause appends the clausal form of a non-choice rule — heads positive,
// body literals negated — excluding every literal of atom skip (-1 = none).
func (cd *cdnl) ruleClause(ri int32, skip int, buf []int32) []int32 {
	r := &cd.s.rules[ri]
	for _, h := range r.head {
		if h != skip {
			buf = append(buf, mkLit(h, true))
		}
	}
	for _, b := range r.pos {
		if b != skip {
			buf = append(buf, mkLit(b, false))
		}
	}
	for _, c := range r.neg {
		if c != skip {
			buf = append(buf, mkLit(c, true))
		}
	}
	return buf
}

// noteRuleConflict records a violated non-choice rule (body satisfied, every
// head false) as the conflict clause.
func (cd *cdnl) noteRuleConflict(ri int32) {
	cd.cLits = cd.ruleClause(ri, -1, cd.cLits[:0])
}

// noteChoiceConflict records a violated cardinality bound: with the body
// satisfied, either too many heads are already true (upper) or too many are
// already false for the lower bound to remain reachable.
func (cd *cdnl) noteChoiceConflict(ri int32, upper bool) {
	s := cd.s
	r := &s.rules[ri]
	buf := cd.cLits[:0]
	for _, b := range r.pos {
		buf = append(buf, mkLit(b, false))
	}
	for _, c := range r.neg {
		buf = append(buf, mkLit(c, true))
	}
	for _, h := range r.head {
		if upper && s.assign[h] == tru {
			buf = append(buf, mkLit(h, false))
		} else if !upper && s.assign[h] == fls {
			buf = append(buf, mkLit(h, true))
		}
	}
	cd.cLits = buf
}

// noteSupportConflict records a true atom that lost every potential support:
// the completion clause ¬a ∨ (some rule of a supports it), with each rule's
// support condition represented by a currently-false killer literal.
func (cd *cdnl) noteSupportConflict(a int) {
	buf := cd.cLits[:0]
	buf = append(buf, mkLit(a, false))
	for _, ri := range cd.s.occHead.of(a) {
		buf = cd.appendKiller(ri, a, int32(len(cd.s.trail)), buf)
	}
	cd.cLits = buf
}

// noteClauseConflict records a fully falsified clause as the conflict.
func (cd *cdnl) noteClauseConflict(ci int32) {
	cd.bumpCla(ci)
	cd.cLits = append(cd.cLits[:0], cd.db[ci].lits...)
}

// noteClashConflict records an implication that contradicted an existing
// assignment: the pending reason's antecedents plus the (now false) implied
// literal. Unreachable for the propagation paths, which check undef before
// setting, but kept so set stays safe for any caller.
func (cd *cdnl) noteClashConflict(a int, v int8) {
	k, i := cd.pk, cd.pi
	buf := cd.cLits[:0]
	buf = append(buf, mkLit(a, v == tru))
	cd.cLits = cd.antecedents(k, i, a, int32(len(cd.s.trail)), buf)
}

// appendKiller appends one currently-false literal witnessing that rule ri
// cannot support atom a, considering only assignments made before trail
// position p: a false body literal, or (non-choice) another true head.
func (cd *cdnl) appendKiller(ri int32, a int, p int32, buf []int32) []int32 {
	s := cd.s
	r := &s.rules[ri]
	for _, b := range r.pos {
		if s.assign[b] == fls && cd.posIn[b] < p {
			return append(buf, mkLit(b, true))
		}
	}
	for _, c := range r.neg {
		if s.assign[c] == tru && cd.posIn[c] < p {
			return append(buf, mkLit(c, false))
		}
	}
	if !r.choice {
		for _, h := range r.head {
			if h != a && s.assign[h] == tru && cd.posIn[h] < p {
				return append(buf, mkLit(h, false))
			}
		}
	}
	// Invariant breach: the support died without a witness. Degrade to
	// reduct-test verification.
	cd.checkStability = true
	return buf
}

// --- top-level search -------------------------------------------------------

// propagateAll runs rule, support, clause, and unfounded propagation to a
// mutual fixpoint. It returns false on conflict, with the conflict clause in
// cd.cLits.
func (cd *cdnl) propagateAll() bool {
	s := cd.s
	for {
		if !cd.propWatches() {
			s.clearQueues()
			return false
		}
		if len(s.ruleQ) > 0 {
			ri := s.ruleQ[len(s.ruleQ)-1]
			s.ruleQ = s.ruleQ[:len(s.ruleQ)-1]
			s.inRuleQ[ri] = false
			if !s.examine(ri) {
				s.clearQueues()
				return false
			}
			continue
		}
		if cd.qhead < len(s.trail) {
			continue
		}
		if len(s.srcQ) > 0 {
			a := int(s.srcQ[len(s.srcQ)-1])
			s.srcQ = s.srcQ[:len(s.srcQ)-1]
			s.inSrcQ[a] = false
			if !s.repairSource(a) {
				s.clearQueues()
				return false
			}
			continue
		}
		if len(cd.dirtyQ) > 0 {
			progress, ok := cd.unfoundedPass()
			if !ok {
				s.clearQueues()
				return false
			}
			if progress {
				continue
			}
		}
		return true
	}
}

// handleTotal emits the current total assignment (verifying stability only
// when required), then blocks it and flips the deepest decision. It returns
// false when the enumeration is complete or MaxModels is reached.
func (cd *cdnl) handleTotal() bool {
	s := cd.s
	ok := true
	if cd.checkStability {
		s.out.Stats.StabilityChecks++
		ok = s.stable()
	}
	if ok {
		s.emitModel()
	}
	if s.opts.MaxModels > 0 && len(s.out.Models) >= s.opts.MaxModels {
		return false
	}
	lvl := int(cd.curLevel())
	if lvl == 0 {
		return false
	}
	// Blocking clause: the negation of every decision literal, deepest
	// first so the watch order matches the post-backjump levels.
	lits := make([]int32, 0, lvl)
	for L := lvl - 1; L >= 0; L-- {
		d := int(s.trail[cd.trailLim[L]])
		lits = append(lits, mkLit(d, s.assign[d] != tru))
	}
	ci := cd.addClause(lits, fBlocking)
	cd.cancelUntil(int32(lvl - 1))
	cd.imply(cd.db[ci].lits[0], rkClause, ci)
	return true
}

// searchCDNL is the engine's main loop: propagate, then either resolve the
// conflict, emit-and-block a total assignment, or decide.
func (s *solver) searchCDNL() {
	cd := s.cd
	for {
		if !cd.propagateAll() {
			s.out.Stats.Conflicts++
			if !cd.resolveConflict() {
				return
			}
			continue
		}
		if s.opts.MaxModels > 0 && len(s.out.Models) >= s.opts.MaxModels {
			return
		}
		a := cd.pickBranch()
		if a < 0 {
			if !cd.handleTotal() {
				return
			}
			continue
		}
		s.out.Stats.Choices++
		cd.decide(a)
	}
}
