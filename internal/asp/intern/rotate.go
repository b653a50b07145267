// Epoch-based eviction: table rotation with dense ID remapping.
//
// Streams that mint fresh constants every window (timestamps, unique event
// IDs) make a monotonically growing table fatal for long-running reasoners.
// Rotation converts "fast until it OOMs" into "fast forever": the engine
// advances the table's epoch once per window, collects the atom IDs its
// cross-window state still references, and calls Rotate when the table
// exceeds its memory budget. Rotate compacts the table in place — keeping
// the live atoms, every entry touched in the current epoch (a safety net for
// in-flight references), all predicates (bounded by the program text), and
// the symbols/terms the kept atoms reference — and returns a Remap that the
// holders of interned IDs (grounder stores, fact refcounts, answer sets)
// apply. The *Table pointer is stable across rotations, so identity-keyed
// consumers (answer-set combination, Equal fast paths) stay valid.

package intern

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"streamrule/internal/asp/ast"
)

// AdvanceEpoch starts a new epoch and returns it. Engines call it once per
// window so "touched in the current epoch" means "referenced by the window
// being processed". Safe to call concurrently with any table operation.
func (t *Table) AdvanceEpoch() uint32 { return atomic.AddUint32(&t.epoch, 1) }

// Epoch returns the current epoch.
func (t *Table) Epoch() uint32 { return t.curEpoch() }

// TableStats is a snapshot of a table's size and rotation history.
type TableStats struct {
	// Syms/Preds/Terms/Atoms are the current (live) entry counts.
	Syms, Preds, Terms, Atoms int
	// PeakAtoms is the largest atom count the table ever held, across
	// rotations.
	PeakAtoms int
	// Epoch is the current epoch.
	Epoch uint32
	// Rotations counts completed Rotate calls.
	Rotations int
	// EvictedAtoms is the total number of atoms dropped by all rotations.
	EvictedAtoms int64
	// RemapTime is the cumulative wall-clock time spent inside Rotate.
	RemapTime time.Duration
	// Bytes is the approximate heap retained by the table's entries (see
	// Table.ApproxBytes).
	Bytes int64
	// Shrinks counts rotations that additionally rebuilt the backing maps
	// and slices because the live entry count had fallen far below the
	// peak since the last rebuild (Go maps never shrink on their own).
	Shrinks int
}

// Stats returns a snapshot of the table's size and rotation history.
func (t *Table) Stats() TableStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return TableStats{
		Syms:         len(t.symNames),
		Preds:        len(t.predInfo),
		Terms:        len(t.termList),
		Atoms:        len(t.atoms),
		PeakAtoms:    t.peakAtoms,
		Epoch:        t.curEpoch(),
		Rotations:    t.rotations,
		EvictedAtoms: t.evictedAtoms,
		RemapTime:    time.Duration(t.remapTime),
		Bytes:        t.approxBytes,
		Shrinks:      t.shrinks,
	}
}

// Remap is the dense old→new ID mapping produced by one rotation. Predicate
// IDs are stable (predicates are never evicted), so only atoms and symbols
// need remapping by callers.
type Remap struct {
	atoms []AtomID
	syms  []SymID
	terms []int32
	// Stats describes the rotation that produced this remap.
	Stats RotateStats
}

// RotateStats describes a single rotation.
type RotateStats struct {
	AtomsBefore, AtomsAfter int
	SymsBefore, SymsAfter   int
	TermsBefore, TermsAfter int
	// Took is the wall-clock duration of the Rotate call.
	Took time.Duration
}

// Atom maps an old atom ID to its post-rotation ID. ok is false when the
// atom was evicted.
func (rm *Remap) Atom(old AtomID) (AtomID, bool) {
	if old < 0 || int(old) >= len(rm.atoms) || rm.atoms[old] < 0 {
		return 0, false
	}
	return rm.atoms[old], true
}

// Sym maps an old symbol ID to its post-rotation ID. ok is false when the
// symbol was evicted.
func (rm *Remap) Sym(old SymID) (SymID, bool) {
	if old < 0 || int(old) >= len(rm.syms) || rm.syms[old] < 0 {
		return 0, false
	}
	return rm.syms[old], true
}

// NumLiveAtoms returns the number of atoms that survived the rotation.
func (rm *Remap) NumLiveAtoms() int { return rm.Stats.AtomsAfter }

// remapCode rewrites one argument code through the symbol/term remaps. Kept
// atoms reference only kept symbols/terms, so the mapped IDs are valid.
func (rm *Remap) remapCode(c Code) Code {
	payload := c & payloadMask
	switch c & codeTagMask {
	case tagSym:
		return tagSym | Code(rm.syms[payload])
	case tagStr:
		return tagStr | Code(rm.syms[payload])
	case tagTerm:
		return tagTerm | Code(rm.terms[payload])
	default: // tagNum: inline, table-independent
		return c
	}
}

// Rotate compacts the table to the entries still in use and returns the
// old→new remapping. Kept are: the atoms listed in live, every entry touched
// in the current epoch, all predicates and their name symbols, and the
// symbols/terms referenced by a kept atom's arguments. Everything else is
// dropped; re-interning a dropped atom later simply assigns a fresh ID.
// Call AdvanceEpoch at least once before rotating: epoch 0 means epoch
// tracking was off, every entry counts as current, and nothing is evicted
// (budgeted engines advance the epoch every window).
//
// The caller must guarantee that no other goroutine holds interned IDs it
// will use after the call without applying the remap — in the engine,
// rotation runs between windows after all partition reasoners have
// quiesced. The process-wide Default table is refused: it is shared by
// every component that did not configure its own table, and rotating it
// would invalidate IDs the rotating caller cannot see.
func (t *Table) Rotate(live []AtomID) (*Remap, error) {
	if t == defaultTable {
		return nil, fmt.Errorf("intern: refusing to rotate the process-wide default table; configure a private table (ground.Options.Intern)")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start := time.Now()
	cur := t.curEpoch()

	nAtoms := len(t.atoms)
	keepAtom := make([]bool, nAtoms)
	for _, id := range live {
		if id < 0 || int(id) >= nAtoms {
			return nil, fmt.Errorf("intern: live atom id %d out of range [0,%d)", id, nAtoms)
		}
		keepAtom[id] = true
	}
	for i, e := range t.atomEpochs {
		if e == cur {
			keepAtom[i] = true
		}
	}

	// Symbols/terms: keep what the kept atoms reference, what was touched
	// this epoch, and every predicate-name symbol (predicates are pinned).
	keepSym := make([]bool, len(t.symNames))
	for i, e := range t.symEpochs {
		if e == cur {
			keepSym[i] = true
		}
	}
	for _, pi := range t.predInfo {
		keepSym[pi.nameSym] = true
	}
	keepTerm := make([]bool, len(t.termList))
	for i, e := range t.termEpochs {
		if e == cur {
			keepTerm[i] = true
		}
	}
	for i, keep := range keepAtom {
		if !keep {
			continue
		}
		e := t.atoms[i]
		for _, c := range t.args[e.off : e.off+e.n] {
			payload := c & payloadMask
			switch c & codeTagMask {
			case tagSym, tagStr:
				keepSym[payload] = true
			case tagTerm:
				keepTerm[payload] = true
			}
		}
	}

	rm := &Remap{
		atoms: make([]AtomID, nAtoms),
		syms:  make([]SymID, len(t.symNames)),
		terms: make([]int32, len(t.termList)),
		Stats: RotateStats{
			AtomsBefore: nAtoms,
			SymsBefore:  len(t.symNames),
			TermsBefore: len(t.termList),
		},
	}

	// Compact symbols in place and rebuild the string index.
	w := 0
	for i, keep := range keepSym {
		if !keep {
			rm.syms[i] = -1
			continue
		}
		rm.syms[i] = SymID(w)
		t.symNames[w] = t.symNames[i]
		t.symEpochs[w] = t.symEpochs[i]
		w++
	}
	t.symNames = t.symNames[:w]
	t.symEpochs = t.symEpochs[:w]
	clear(t.syms)
	for i, name := range t.symNames {
		t.syms[name] = SymID(i)
	}

	// Compact the structured-term side table.
	w = 0
	for i, keep := range keepTerm {
		if !keep {
			rm.terms[i] = -1
			continue
		}
		rm.terms[i] = int32(w)
		t.termList[w] = t.termList[i]
		t.termEpochs[w] = t.termEpochs[i]
		w++
	}
	t.termList = t.termList[:w]
	t.termEpochs = t.termEpochs[:w]
	clear(t.terms)
	for i, term := range t.termList {
		t.terms[term.String()] = uint32(i)
	}

	// Predicates keep their IDs; only the name-symbol reference moves.
	for i := range t.predInfo {
		t.predInfo[i].nameSym = rm.syms[t.predInfo[i].nameSym]
	}

	// Compact atoms: rewrite the argument arena with remapped codes and
	// rebuild the key maps. Writes trail reads (entries only shrink), so the
	// in-place compaction never clobbers an unread entry.
	clear(t.atoms0)
	clear(t.atoms1)
	clear(t.atoms2)
	clear(t.atomsN)
	wAtom := 0
	wArg := uint32(0)
	var nbuf [128]byte
	for i, keep := range keepAtom {
		if !keep {
			rm.atoms[i] = -1
			continue
		}
		e := t.atoms[i]
		id := AtomID(wAtom)
		rm.atoms[i] = id
		off := wArg
		for _, c := range t.args[e.off : e.off+e.n] {
			t.args[wArg] = rm.remapCode(c)
			wArg++
		}
		cs := t.args[off:wArg]
		t.atoms[wAtom] = atomEntry{pred: e.pred, off: off, n: e.n, atom: e.atom}
		t.keys[wAtom] = t.keys[i]
		t.atomEpochs[wAtom] = t.atomEpochs[i]
		switch len(cs) {
		case 0:
			t.atoms0[e.pred] = id
		case 1:
			t.atoms1[key1{e.pred, cs[0]}] = id
		case 2:
			t.atoms2[key2{e.pred, cs[0], cs[1]}] = id
		default:
			key := binary.AppendUvarint(nbuf[:0], uint64(e.pred))
			for _, c := range cs {
				key = binary.AppendUvarint(key, uint64(c))
			}
			t.atomsN[string(key)] = id
		}
		wAtom++
	}
	t.atoms = t.atoms[:wAtom]
	t.keys = t.keys[:wAtom]
	t.atomEpochs = t.atomEpochs[:wAtom]
	t.args = t.args[:wArg]

	t.maybeShrinkLocked()
	t.approxBytes = t.recomputeBytesLocked()

	rm.Stats.AtomsAfter = wAtom
	rm.Stats.SymsAfter = len(t.symNames)
	rm.Stats.TermsAfter = len(t.termList)
	rm.Stats.Took = time.Since(start)
	t.rotations++
	t.evictedAtoms += int64(nAtoms - wAtom)
	t.remapTime += int64(rm.Stats.Took)
	return rm, nil
}

// shrinkFloor is the atom-count peak below which rotation never bothers
// rebuilding the backing containers — at this size the retained buckets are
// noise.
const shrinkFloor = 1024

// maybeShrinkLocked right-sizes the table's maps and slices after a
// compaction that left the live set far below the peak since the last
// rebuild. Go maps only ever grow their bucket arrays, and the in-place
// compaction keeps slice capacity, so a table that once absorbed a burst
// otherwise retains burst-sized backing storage forever — live *entries*
// were bounded by the budget, heap was not. Rebuilding at < ¼ of peak keeps
// the amortized cost trivial (a shrink can only follow 4× growth).
func (t *Table) maybeShrinkLocked() {
	if t.peakShrink < shrinkFloor || len(t.atoms)*4 >= t.peakShrink {
		return
	}
	syms := make(map[string]SymID, len(t.symNames))
	for name, id := range t.syms {
		syms[name] = id
	}
	t.syms = syms
	terms := make(map[string]uint32, len(t.termList))
	for k, i := range t.terms {
		terms[k] = i
	}
	t.terms = terms
	atoms0 := make(map[PredID]AtomID, len(t.atoms0))
	for k, id := range t.atoms0 {
		atoms0[k] = id
	}
	t.atoms0 = atoms0
	atoms1 := make(map[key1]AtomID, len(t.atoms1))
	for k, id := range t.atoms1 {
		atoms1[k] = id
	}
	t.atoms1 = atoms1
	atoms2 := make(map[key2]AtomID, len(t.atoms2))
	for k, id := range t.atoms2 {
		atoms2[k] = id
	}
	t.atoms2 = atoms2
	atomsN := make(map[string]AtomID, len(t.atomsN))
	for k, id := range t.atomsN {
		atomsN[k] = id
	}
	t.atomsN = atomsN

	t.symNames = append(make([]string, 0, len(t.symNames)), t.symNames...)
	t.symEpochs = append(make([]uint32, 0, len(t.symEpochs)), t.symEpochs...)
	t.termList = append(make([]ast.Term, 0, len(t.termList)), t.termList...)
	t.termEpochs = append(make([]uint32, 0, len(t.termEpochs)), t.termEpochs...)
	t.atoms = append(make([]atomEntry, 0, len(t.atoms)), t.atoms...)
	t.keys = append(make([]string, 0, len(t.keys)), t.keys...)
	t.atomEpochs = append(make([]uint32, 0, len(t.atomEpochs)), t.atomEpochs...)
	t.args = append(make([]Code, 0, len(t.args)), t.args...)

	t.peakShrink = len(t.atoms)
	t.shrinks++
}

// recomputeBytesLocked re-derives the approximate retained bytes from the
// surviving entries, resetting any drift the incremental counter picked up
// (dropped entries are never decremented outside rotation).
func (t *Table) recomputeBytesLocked() int64 {
	var b int64
	for _, name := range t.symNames {
		b += int64(len(name)) + symBytes
	}
	for _, pi := range t.predInfo {
		b += int64(len(pi.name)) + predBytes
	}
	for key := range t.terms {
		b += int64(len(key)) + termBytes
	}
	b += atomBytes*int64(len(t.atoms)) + codeBytes*int64(len(t.args))
	for _, k := range t.keys {
		b += int64(len(k))
	}
	return b
}
