// Learned-clause DB.
//
// Clauses (learned, loop, blocking) propagate by the standard
// two-watched-literal scheme — no counters to maintain, nothing to undo on
// backjump — and the learned portion is kept in check by activity-based
// forgetting, exactly the lifecycle modern CDCL solvers use. Reasons
// currently on the trail, glue clauses (LBD <= 2) and permanent clauses
// (blocking, loop) are never deleted. The DB lives for one Solve call: every
// window starts from its own ground program with an empty DB.
package solve

import (
	"slices"
	"sort"
)

// clause flags.
const (
	fLearned  uint8 = 1 << iota // removable, counts against maxLearned
	fLoop                       // loop nogood from unfounded detection
	fBlocking                   // enumeration blocking clause
	fDead                       // logically deleted, dropped lazily from watch lists
)

// clause is one stored clause over local literals.
type clause struct {
	lits  []int32
	act   float64
	lbd   int32
	flags uint8
}

// addClause stores a clause, attaching watches on lits[0] and lits[1]
// (callers order lits[1] to be the deepest-level non-asserting literal).
// Length-1 clauses get no watches; the caller asserts them directly.
func (cd *cdnl) addClause(lits []int32, flags uint8) int32 {
	ci := int32(len(cd.db))
	cd.db = append(cd.db, clause{
		lits:  slices.Clone(lits),
		act:   cd.claInc,
		lbd:   cd.computeLBD(lits),
		flags: flags,
	})
	if len(lits) >= 2 {
		cd.watch[lits[0]] = append(cd.watch[lits[0]], ci)
		cd.watch[lits[1]] = append(cd.watch[lits[1]], ci)
	}
	return ci
}

func (cd *cdnl) bumpCla(ci int32) {
	c := &cd.db[ci]
	if c.flags&fLearned == 0 {
		return
	}
	c.act += cd.claInc
	if c.act > 1e20 {
		for i := range cd.db {
			cd.db[i].act *= 1e-20
		}
		cd.claInc *= 1e-20
	}
}

// locked reports whether the clause is the reason of a current assignment.
func (cd *cdnl) locked(ci int32) bool {
	c := &cd.db[ci]
	if len(c.lits) == 0 {
		return false
	}
	a := litAtom(c.lits[0])
	return cd.litTrue(c.lits[0]) && cd.reasonK[a] == rkClause && cd.reasonI[a] == ci
}

// reduceDB forgets the less active half of the removable learned clauses
// (never locked ones, never glue clauses with LBD <= 2), then raises the cap.
func (cd *cdnl) reduceDB() {
	var live []int32
	for ci := range cd.db {
		c := &cd.db[ci]
		if c.flags&fLearned != 0 && c.flags&fDead == 0 {
			live = append(live, int32(ci))
		}
	}
	sort.Slice(live, func(i, j int) bool {
		return cd.db[live[i]].act < cd.db[live[j]].act
	})
	for _, ci := range live[:len(live)/2] {
		c := &cd.db[ci]
		if c.lbd <= 2 || cd.locked(ci) {
			continue
		}
		c.flags |= fDead
		c.lits = nil
		cd.learnedLive--
	}
	cd.maxLearned += cd.maxLearned / 2
}

// propWatches catches clause propagation up to the trail head. It returns
// false on conflict (recorded via noteClauseConflict).
func (cd *cdnl) propWatches() bool {
	s := cd.s
	for cd.qhead < len(s.trail) {
		a := int(s.trail[cd.qhead])
		cd.qhead++
		// The literal that just became false.
		fl := mkLit(a, s.assign[a] != tru)
		ws := cd.watch[fl]
		j := 0
		for i := 0; i < len(ws); i++ {
			ci := ws[i]
			c := &cd.db[ci]
			if c.flags&fDead != 0 {
				continue // dropped lazily
			}
			if c.lits[0] == fl {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if cd.litTrue(c.lits[0]) {
				ws[j] = ci
				j++
				continue
			}
			moved := false
			for k := 2; k < len(c.lits); k++ {
				if !cd.litFalse(c.lits[k]) {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					cd.watch[c.lits[1]] = append(cd.watch[c.lits[1]], ci)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Unit or conflict: keep watching fl either way.
			ws[j] = ci
			j++
			if cd.litFalse(c.lits[0]) {
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				cd.watch[fl] = ws[:j]
				cd.noteClauseConflict(ci)
				return false
			}
			cd.imply(c.lits[0], rkClause, ci)
		}
		cd.watch[fl] = ws[:j]
	}
	return true
}
