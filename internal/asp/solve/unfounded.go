// Unfounded-set detection: positive loops refuted during propagation.
//
// The worklist engine's source pointers catch atoms with no supporting rule
// at all, but an atom supported only through a positive cycle keeps a "valid"
// source and survives to the stability check, which then rejects the whole
// candidate — after the search has paid for completing it. This pass closes
// that gap for non-disjunctive programs: at each propagation fixpoint, every
// dirty strongly connected component of the positive dependency graph is
// checked for foundedness. An atom is founded when some rule with a non-false
// body supports it with all of its same-SCC positive body atoms founded;
// whatever remains non-false and unfounded is an unfounded set U and is
// falsified with materialized loop nogoods:
//
//	¬a  ∨  killer(r₁) ∨ … ∨ killer(rₖ)   for each a ∈ U,
//
// where r₁..rₖ are the external rules of U (head in U, positive body disjoint
// from U) and killer(rᵢ) is a currently-false body literal of rᵢ. Every
// external rule has one — if its body were non-false, its head would have
// been founded. The clause is entailed under stable-model semantics: a true
// atom of U needs a well-founded derivation, whose first rule outside U is
// external and has a satisfied body, contradicting every killer being false.
// (For disjunctive programs that argument breaks, so the engine skips this
// pass and verifies candidates with the reduct test instead.)
//
// Dirtiness is event-driven: a component is re-examined only after a rule
// with a head in it lost its body (bf 0→1, hooked in sourceDiedBody) —
// exactly the transition that can turn a founded atom unfounded. Backtracking
// needs no hook: retraction only un-falsifies bodies, which can only grow the
// founded set, and every restored state was itself checked at its fixpoint.
package solve

// buildSCCs computes the nontrivial strongly connected components of the
// positive dependency graph (edge head -> positive body atom, for every
// rule). A component is nontrivial when it has more than one atom or a
// self-loop. Trivial atoms keep sccID -1 and are fully handled by the
// source-pointer repair in propagate.go.
func (cd *cdnl) buildSCCs() {
	s := cd.s
	n := cd.n
	cd.sccID = make([]int32, n)
	for a := range cd.sccID {
		cd.sccID[a] = -1
	}
	// Iterative Tarjan.
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for a := range index {
		index[a] = unvisited
	}
	var stack []int32
	var next int32
	type frame struct {
		a  int32
		ri int // cursor into occHead.of(a)
		bi int // cursor into rule's pos list
	}
	var frames []frame
	selfLoop := make([]bool, n)
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{a: int32(root)})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			a := int(f.a)
			advanced := false
			heads := s.occHead.of(a)
			for f.ri < len(heads) {
				pos := s.rules[heads[f.ri]].pos
				if f.bi >= len(pos) {
					f.ri++
					f.bi = 0
					continue
				}
				b := pos[f.bi]
				f.bi++
				if b == a {
					selfLoop[a] = true
					continue
				}
				if index[b] == unvisited {
					index[b] = next
					low[b] = next
					next++
					stack = append(stack, int32(b))
					onStack[b] = true
					frames = append(frames, frame{a: int32(b)})
					advanced = true
					break
				}
				if onStack[b] && index[b] < low[a] {
					low[a] = index[b]
				}
			}
			if advanced {
				continue
			}
			// a is finished.
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := int(frames[len(frames)-1].a)
				if low[a] < low[p] {
					low[p] = low[a]
				}
			}
			if low[a] == index[a] {
				// Pop the component.
				start := len(stack)
				for stack[start-1] != int32(a) {
					start--
				}
				comp := stack[start-1:]
				if len(comp) > 1 || selfLoop[a] {
					id := int32(len(cd.sccAtoms))
					atoms := make([]int32, len(comp))
					copy(atoms, comp)
					cd.sccAtoms = append(cd.sccAtoms, atoms)
					for _, x := range comp {
						cd.sccID[x] = id
						onStack[x] = false
					}
				} else {
					onStack[a] = false
				}
				stack = stack[:start-1]
			}
		}
	}
	cd.sccDirty = make([]bool, len(cd.sccAtoms))
	cd.hasLoopHead = make([]bool, len(s.rules))
	for ri := range s.rules {
		for _, h := range s.rules[ri].head {
			if cd.sccID[h] >= 0 {
				cd.hasLoopHead[ri] = true
				break
			}
		}
	}
	// Every nontrivial component starts dirty: the initial fixpoint must
	// falsify loops with no external support at all.
	for i := range cd.sccAtoms {
		cd.sccDirty[i] = true
		cd.dirtyQ = append(cd.dirtyQ, int32(i))
	}
}

// unfoundedPass re-examines the dirty components. It falsifies unfounded
// atoms with loop-nogood reasons, returning progress=true when it assigned
// anything and ok=false on conflict (a true atom turned out unfounded).
func (cd *cdnl) unfoundedPass() (progress, ok bool) {
	for len(cd.dirtyQ) > 0 {
		scc := cd.dirtyQ[len(cd.dirtyQ)-1]
		cd.dirtyQ = cd.dirtyQ[:len(cd.dirtyQ)-1]
		cd.sccDirty[scc] = false
		p, o := cd.checkSCC(scc)
		progress = progress || p
		if !o {
			return progress, false
		}
		if p {
			// Falsifications may dirty other components (via the bf hooks);
			// the outer propagate loop re-enters before the next decision.
			return progress, true
		}
	}
	return progress, true
}

// checkSCC runs the founded fixpoint on one component and falsifies the
// unfounded remainder.
func (cd *cdnl) checkSCC(scc int32) (progress, ok bool) {
	s := cd.s
	atoms := cd.sccAtoms[scc]
	cd.fEpoch++
	ep := cd.fEpoch
	// Seed: rules whose body is non-false and whose in-SCC positive atoms
	// are all already founded (initially: none in-SCC, i.e. external).
	q := cd.uQ[:0]
	found := func(a int32) {
		if cd.fStamp[a] != ep && s.assign[a] != fls {
			cd.fStamp[a] = ep
			q = append(q, a)
		}
	}
	for _, a := range atoms {
		if s.assign[a] == fls {
			continue
		}
		// Stamp every candidate rule (no early break): a multi-head choice
		// rule reached through one head must stay usable for the others.
		for _, ri := range s.occHead.of(int(a)) {
			if s.bf[ri] > 0 {
				continue
			}
			if cd.rStamp[ri] != ep {
				cd.rStamp[ri] = ep
				var need int32
				for _, b := range s.rules[ri].pos {
					if cd.sccID[b] == scc {
						need++
					}
				}
				cd.needPos[ri] = need
			}
			if cd.needPos[ri] == 0 {
				found(a)
			}
		}
	}
	for len(q) > 0 {
		a := q[len(q)-1]
		q = q[:len(q)-1]
		for _, ri := range s.occPos.of(int(a)) {
			if s.bf[ri] > 0 || cd.rStamp[ri] != ep {
				continue
			}
			if cd.needPos[ri]--; cd.needPos[ri] > 0 {
				continue
			}
			for _, h := range s.rules[ri].head {
				if cd.sccID[h] == scc {
					found(int32(h))
				}
			}
		}
	}
	cd.uQ = q[:0]
	u := cd.uSet[:0]
	for _, a := range atoms {
		if s.assign[a] != fls && cd.fStamp[a] != ep {
			u = append(u, a)
		}
	}
	cd.uSet = u
	if len(u) == 0 {
		return false, true
	}
	// Killer tail: one false body literal per external rule of U.
	cd.fEpoch++
	ep2 := cd.fEpoch
	tail := cd.tail[:0]
	inU := func(b int) bool {
		return cd.sccID[b] == scc && s.assign[b] != fls && cd.fStamp[b] != ep
	}
	for _, a := range u {
		for _, ri := range s.occHead.of(int(a)) {
			if cd.rStamp[ri] == ep2 {
				continue
			}
			cd.rStamp[ri] = ep2
			internal := false
			for _, b := range s.rules[ri].pos {
				if inU(b) {
					internal = true
					break
				}
			}
			if internal {
				continue
			}
			before := len(tail)
			tail = cd.appendKiller(ri, -1, int32(len(s.trail)), tail)
			if len(tail) == before {
				// No witness for a dead support: a broken invariant.
				// Disable the loop machinery for this run and let the
				// reduct test carry correctness instead of risking an
				// unsound clause.
				cd.disableLoops()
				return false, true
			}
		}
	}
	cd.tail = tail
	progress = true
	for _, a := range u {
		lits := make([]int32, 0, 1+len(tail))
		lits = append(lits, mkLit(int(a), false))
		lits = append(lits, tail...)
		// Watch order: slot 1 holds the deepest-level killer so the watch
		// pair straddles any future backjump.
		for i := 2; i < len(lits); i++ {
			if cd.level[litAtom(lits[i])] > cd.level[litAtom(lits[1])] {
				lits[1], lits[i] = lits[i], lits[1]
			}
		}
		ci := cd.addClause(lits, fLoop)
		s.out.Stats.LoopNogoods++
		if s.assign[a] == tru {
			cd.noteClauseConflict(ci)
			return progress, false
		}
		cd.imply(mkLit(int(a), false), rkClause, ci)
	}
	return progress, true
}

// disableLoops turns off unfounded detection for the rest of the run after a
// broken invariant, falling back to per-candidate reduct tests.
func (cd *cdnl) disableLoops() {
	cd.checkStability = true
	cd.sccID = nil
	cd.dirtyQ = nil
}
