// Conflict analysis: 1UIP resolution over the trail.
//
// Reasons are not stored as materialized clauses. Each implied atom records
// only the kind and index of what forced it (rule, cardinality bound, support
// loss, or clause), and the antecedent literals are reconstructed on demand
// when analysis actually resolves the atom. Reconstruction is sound because
// the trail only grows between an implication and the conflict that analyzes
// it, so the antecedents that held at implication time are recovered by
// filtering on trail position.
package solve

// antecedents appends the antecedent literals — all false, all assigned
// before trail position p — of an implication of atom a with reason (k, i).
// The implied literal itself is excluded.
func (cd *cdnl) antecedents(k uint8, i int32, a int, p int32, buf []int32) []int32 {
	s := cd.s
	switch k {
	case rkRule:
		return cd.ruleClause(i, a, buf)
	case rkChoice:
		r := &s.rules[i]
		for _, b := range r.pos {
			buf = append(buf, mkLit(b, false))
		}
		for _, c := range r.neg {
			buf = append(buf, mkLit(c, true))
		}
		if s.assign[a] != tru {
			// Upper bound reached: the heads true at implication time.
			for _, h := range r.head {
				if h != a && s.assign[h] == tru && cd.posIn[h] < p {
					buf = append(buf, mkLit(h, false))
				}
			}
		} else {
			// Lower bound tight: the heads false at implication time.
			for _, h := range r.head {
				if h != a && s.assign[h] == fls && cd.posIn[h] < p {
					buf = append(buf, mkLit(h, true))
				}
			}
		}
		return buf
	case rkSupport:
		for _, ri := range s.occHead.of(a) {
			buf = cd.appendKiller(ri, a, p, buf)
		}
		return buf
	case rkClause:
		c := &cd.db[i]
		cd.bumpCla(i)
		for _, q := range c.lits {
			if litAtom(q) != a {
				buf = append(buf, q)
			}
		}
		return buf
	}
	return buf
}

// analyze performs 1UIP resolution starting from the conflict clause in
// cd.cLits. It returns the asserting clause — learnt[0] is the asserting
// literal, learnt[1] the highest-level other literal — and the backjump
// level. The caller must already be at the level of the deepest conflict
// literal.
func (cd *cdnl) analyze() (learnt []int32, bj int32) {
	s := cd.s
	cur := cd.curLevel()
	learnt = append(cd.outLearnt[:0], 0) // slot 0: asserting literal
	counter := 0
	idx := len(s.trail) - 1
	c := cd.cLits
	for {
		for _, q := range c {
			qa := litAtom(q)
			if !cd.seen[qa] && cd.level[qa] > 0 {
				cd.seen[qa] = true
				cd.bumpVar(qa)
				if cd.level[qa] == cur {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		for !cd.seen[s.trail[idx]] {
			idx--
		}
		a := int(s.trail[idx])
		idx--
		cd.seen[a] = false
		counter--
		if counter == 0 {
			learnt[0] = mkLit(a, s.assign[a] != tru)
			break
		}
		cd.rbuf = cd.antecedents(cd.reasonK[a], cd.reasonI[a], a, cd.posIn[a], cd.rbuf[:0])
		c = cd.rbuf
	}
	for _, q := range learnt[1:] {
		cd.seen[litAtom(q)] = false
	}
	// Backjump level: the highest level among the non-asserting literals;
	// swap that literal into slot 1 so the watches straddle the backjump.
	bj = 0
	for i := 1; i < len(learnt); i++ {
		if l := cd.level[litAtom(learnt[i])]; l > bj {
			bj = l
			learnt[1], learnt[i] = learnt[i], learnt[1]
		}
	}
	cd.outLearnt = learnt
	return learnt, bj
}

// computeLBD returns the number of distinct decision levels among the
// clause's literals — the standard "literal blocks distance" quality metric.
func (cd *cdnl) computeLBD(lits []int32) int32 {
	cd.lbdEpoch++
	var n int32
	for _, q := range lits {
		l := cd.level[litAtom(q)]
		if cd.lbdStamp[l] != cd.lbdEpoch {
			cd.lbdStamp[l] = cd.lbdEpoch
			n++
		}
	}
	return n
}

// resolveConflict analyzes the conflict recorded in cd.cLits, learns the
// asserting clause, backjumps, and asserts. It returns false when the
// conflict is at (or entirely below) the root level: the enumeration is done.
func (cd *cdnl) resolveConflict() bool {
	s := cd.s
	// A lazily reconstructed conflict may sit entirely below the current
	// level; analysis requires the deepest conflict literal to be at the
	// current level, so fall back first.
	var m int32
	for _, q := range cd.cLits {
		if l := cd.level[litAtom(q)]; l > m {
			m = l
		}
	}
	if m == 0 {
		return false
	}
	if m < cd.curLevel() {
		cd.cancelUntil(m)
	}
	learnt, bj := cd.analyze()
	if bj < cd.curLevel()-1 {
		s.out.Stats.Backjumps++
	}
	cd.cancelUntil(bj)
	ci := cd.addClause(learnt, fLearned)
	s.out.Stats.Learned++
	cd.learnedLive++
	cd.imply(cd.db[ci].lits[0], rkClause, ci)
	cd.decayActivities()
	if cd.learnedLive > cd.maxLearned {
		cd.reduceDB()
	}
	return true
}
