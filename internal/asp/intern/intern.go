package intern

import (
	"encoding/binary"
	"sort"
	"sync"
	"sync/atomic"

	"streamrule/internal/asp/ast"
)

// SymID identifies an interned constant/predicate-name string.
type SymID int32

// PredID identifies an interned (name, arity) predicate.
type PredID int32

// AtomID identifies an interned ground atom. IDs are dense: the first
// interned atom gets 0, the next 1, and so on.
type AtomID int32

// Code is a 64-bit encoding of a ground term: 2 tag bits plus a 62-bit
// payload (an inline integer, a SymID, or an index into the side table of
// structured terms).
type Code uint64

const (
	codeShift          = 62
	codeTagMask  Code  = 3 << codeShift
	tagNum       Code  = 0 << codeShift
	tagSym       Code  = 1 << codeShift
	tagStr       Code  = 2 << codeShift
	tagTerm      Code  = 3 << codeShift
	payloadMask  Code  = (1 << codeShift) - 1
	maxInlineNum int64 = 1<<61 - 1
	minInlineNum int64 = -(1 << 61)
)

type predKey struct {
	name  string
	arity int
}

type predInfo struct {
	name    string
	nameSym SymID
	arity   int
}

type key1 struct {
	pred PredID
	c0   Code
}

type key2 struct {
	pred PredID
	c0   Code
	c1   Code
}

type atomEntry struct {
	pred PredID
	// off/n locate the argument codes in the args arena.
	off uint32
	n   uint32
	// atom is the materialized form, built once at intern time.
	atom ast.Atom
}

// Table interns symbols, predicates, and ground atoms. The zero value is not
// usable; call NewTable (or use Default).
type Table struct {
	mu sync.RWMutex

	syms     map[string]SymID
	symNames []string

	preds    map[predKey]PredID
	predInfo []predInfo

	// Structured ground terms (function terms, out-of-range integers) that
	// do not fit a Code payload, keyed by their canonical rendering.
	terms    map[string]uint32
	termList []ast.Term

	atoms []atomEntry
	args  []Code
	// keys caches the canonical string key per atom, rendered lazily.
	keys []string

	atoms0 map[PredID]AtomID
	atoms1 map[key1]AtomID
	atoms2 map[key2]AtomID
	atomsN map[string]AtomID

	// Epoch-based eviction state (rotate.go). epoch is read/written
	// atomically (AdvanceEpoch takes no lock); the per-entry epoch slices
	// are aligned with symNames/predInfo/termList/atoms and record the last
	// epoch an entry was interned or re-interned. Under a read lock they are
	// accessed atomically (concurrent readers touch entries); under the
	// write lock plain access is safe.
	epoch      uint32
	symEpochs  []uint32
	predEpochs []uint32
	termEpochs []uint32
	atomEpochs []uint32

	rotations    int
	evictedAtoms int64
	peakAtoms    int
	remapTime    int64 // nanoseconds spent inside Rotate

	// approxBytes approximates the heap retained by the table's entries
	// (strings, argument codes, map/slice overheads). It is maintained
	// incrementally on every insertion under the write lock and recomputed
	// from scratch by Rotate, so drift cannot accumulate across rotations.
	// See ApproxBytes.
	approxBytes int64
	// peakShrink is the peak atom count since the backing maps and slices
	// were last right-sized. Go maps never shrink, so after a burst a
	// rotated table keeps peak-sized buckets; Rotate rebuilds the
	// containers when the live count falls far enough below this peak.
	peakShrink int
	shrinks    int
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{
		syms:   make(map[string]SymID),
		preds:  make(map[predKey]PredID),
		terms:  make(map[string]uint32),
		atoms0: make(map[PredID]AtomID),
		atoms1: make(map[key1]AtomID),
		atoms2: make(map[key2]AtomID),
		atomsN: make(map[string]AtomID),
	}
}

// Approximate per-entry retained-byte costs: each constant covers the entry's
// struct/slice slot, its epoch word, and its share of the lookup-map buckets.
// The model is deliberately coarse — budgets need proportionality to real
// heap, not exact accounting — but it scales with string length, which the
// entry-count budget cannot (N atoms over long URIs retain far more heap
// than N atoms over short numbers).
const (
	symBytes  = 56  // map bucket share + string header + index + epoch slots
	predBytes = 72  // predKey map share + predInfo entry + epoch slot
	termBytes = 112 // key string share + ast.Term + epoch slot
	atomBytes = 96  // atomEntry + lookup-map share + key/epoch slots
	codeBytes = 8   // one argument Code in the args arena
)

// ApproxBytes returns the approximate heap bytes retained by the table's
// entries. Maintained incrementally (insertions only) and recomputed at every
// rotation; intended for observability, not for exact heap accounting.
func (t *Table) ApproxBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.approxBytes
}

var defaultTable = NewTable()

// Default returns the process-wide shared table. Engines and answer sets use
// it unless configured otherwise, so IDs from independent components are
// directly comparable.
func Default() *Table { return defaultTable }

// curEpoch reads the current epoch. Safe without any lock.
func (t *Table) curEpoch() uint32 { return atomic.LoadUint32(&t.epoch) }

// The touch helpers record the current epoch on an entry. They require at
// least a read lock (so the epoch slices cannot be reallocated underneath)
// and store atomically, since multiple read-lock holders may touch
// concurrently. Epoch 0 means epoch tracking is off (AdvanceEpoch was never
// called — the table will not rotate), so the hot paths of non-rotating
// tables pay a read of a never-written word instead of contended stores.
func (t *Table) touchSym(id SymID) {
	if e := t.curEpoch(); e != 0 {
		atomic.StoreUint32(&t.symEpochs[id], e)
	}
}

func (t *Table) touchPred(id PredID) {
	if e := t.curEpoch(); e != 0 {
		atomic.StoreUint32(&t.predEpochs[id], e)
	}
}

func (t *Table) touchAtom(id AtomID) {
	if e := t.curEpoch(); e != 0 {
		atomic.StoreUint32(&t.atomEpochs[id], e)
	}
}

// touchTerm is the term-side touch helper, same contract as the others.
func (t *Table) touchTerm(i uint32) {
	if e := t.curEpoch(); e != 0 {
		atomic.StoreUint32(&t.termEpochs[i], e)
	}
}

// Sym interns a constant or predicate-name string.
func (t *Table) Sym(name string) SymID {
	t.mu.RLock()
	id, ok := t.syms[name]
	if ok {
		t.touchSym(id)
	}
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.symLocked(name)
}

func (t *Table) symLocked(name string) SymID {
	if id, ok := t.syms[name]; ok {
		t.touchSym(id)
		return id
	}
	id := SymID(len(t.symNames))
	t.symNames = append(t.symNames, name)
	t.symEpochs = append(t.symEpochs, t.curEpoch())
	t.syms[name] = id
	t.approxBytes += int64(len(name)) + symBytes
	return id
}

// SymName returns the string of an interned symbol.
func (t *Table) SymName(id SymID) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.symNames[id]
}

// LookupSym reports the SymID of name without interning it.
func (t *Table) LookupSym(name string) (SymID, bool) {
	t.mu.RLock()
	id, ok := t.syms[name]
	t.mu.RUnlock()
	return id, ok
}

// Pred interns a (name, arity) predicate.
func (t *Table) Pred(name string, arity int) PredID {
	k := predKey{name, arity}
	t.mu.RLock()
	id, ok := t.preds[k]
	if ok {
		t.touchPred(id)
	}
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.predLocked(k)
}

func (t *Table) predLocked(k predKey) PredID {
	if id, ok := t.preds[k]; ok {
		t.touchPred(id)
		return id
	}
	id := PredID(len(t.predInfo))
	t.predInfo = append(t.predInfo, predInfo{name: k.name, nameSym: t.symLocked(k.name), arity: k.arity})
	t.predEpochs = append(t.predEpochs, t.curEpoch())
	t.preds[k] = id
	t.approxBytes += int64(len(k.name)) + predBytes
	return id
}

// LookupPred reports the PredID of (name, arity) without interning it.
func (t *Table) LookupPred(name string, arity int) (PredID, bool) {
	t.mu.RLock()
	id, ok := t.preds[predKey{name, arity}]
	t.mu.RUnlock()
	return id, ok
}

// PredName returns the predicate name.
func (t *Table) PredName(p PredID) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.predInfo[p].name
}

// PredNameSym returns the SymID of the predicate name.
func (t *Table) PredNameSym(p PredID) SymID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.predInfo[p].nameSym
}

// PredArity returns the predicate arity.
func (t *Table) PredArity(p PredID) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.predInfo[p].arity
}

// NumPreds returns the number of interned predicates.
func (t *Table) NumPreds() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.predInfo)
}

// CodeNum encodes an integer inline when it fits the payload.
func CodeNum(n int64) (Code, bool) {
	if n < minInlineNum || n > maxInlineNum {
		return 0, false
	}
	return tagNum | (Code(uint64(n)) & payloadMask), true
}

// CodeSym wraps a SymID as a term code.
func CodeSym(id SymID) Code { return tagSym | Code(id) }

// CodeOf interns a ground term and returns its code. The second result is
// false when the term is not ground.
func (t *Table) CodeOf(term ast.Term) (Code, bool) {
	if c, ok, done := codeInline(term); done {
		return c, ok
	}
	switch term.Kind {
	case ast.SymbolTerm:
		return tagSym | Code(t.Sym(term.Sym)), true
	case ast.StringTerm:
		return tagStr | Code(t.Sym(term.Sym)), true
	}
	return t.codeStructured(term)
}

// codeInline handles the cases that need no table access: inline numbers and
// non-ground terms. done reports whether the case was decided here.
func codeInline(term ast.Term) (c Code, ok, done bool) {
	switch term.Kind {
	case ast.NumberTerm:
		if c, ok := CodeNum(term.Num); ok {
			return c, true, true
		}
		return 0, false, false
	case ast.SymbolTerm, ast.StringTerm:
		return 0, false, false
	case ast.VariableTerm, ast.IntervalTerm:
		return 0, false, true
	default:
		if !term.IsGround() {
			return 0, false, true
		}
		return 0, false, false
	}
}

// codeStructured interns a ground structured term (function term, folded
// arithmetic, out-of-range integer) through the side table.
func (t *Table) codeStructured(term ast.Term) (Code, bool) {
	if term.Kind == ast.ArithTerm {
		v, err := term.Eval(nil)
		if err != nil {
			return 0, false
		}
		return t.CodeOf(v)
	}
	key := term.String()
	t.mu.RLock()
	i, ok := t.terms[key]
	if ok {
		t.touchTerm(i)
	}
	t.mu.RUnlock()
	if ok {
		return tagTerm | Code(i), true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.terms[key]; ok {
		t.touchTerm(i)
		return tagTerm | Code(i), true
	}
	i = uint32(len(t.termList))
	t.termList = append(t.termList, term)
	t.termEpochs = append(t.termEpochs, t.curEpoch())
	t.terms[key] = i
	t.approxBytes += int64(len(key)) + termBytes
	return tagTerm | Code(i), true
}

// LookupCode returns the code of a ground term without interning anything.
// ok is false when the term is not ground or was never interned (in which
// case no interned atom can contain it).
func (t *Table) LookupCode(term ast.Term) (Code, bool) {
	if c, ok, done := codeInline(term); done {
		return c, ok
	}
	switch term.Kind {
	case ast.SymbolTerm:
		id, ok := t.LookupSym(term.Sym)
		return tagSym | Code(id), ok
	case ast.StringTerm:
		id, ok := t.LookupSym(term.Sym)
		return tagStr | Code(id), ok
	case ast.ArithTerm:
		v, err := term.Eval(nil)
		if err != nil {
			return 0, false
		}
		return t.LookupCode(v)
	}
	key := term.String()
	t.mu.RLock()
	i, ok := t.terms[key]
	t.mu.RUnlock()
	return tagTerm | Code(i), ok
}

// TermOf decodes a code back into a term.
func (t *Table) TermOf(c Code) ast.Term {
	payload := c & payloadMask
	switch c & codeTagMask {
	case tagNum:
		// Sign-extend the 62-bit payload.
		return ast.Num(int64(uint64(payload)<<2) >> 2)
	case tagSym:
		return ast.Sym(t.SymName(SymID(payload)))
	case tagStr:
		return ast.Str(t.SymName(SymID(payload)))
	default:
		t.mu.RLock()
		defer t.mu.RUnlock()
		return t.termList[payload]
	}
}

// InternAtom interns a ground atom, returning its dense ID.
func (t *Table) InternAtom(a ast.Atom) AtomID {
	t.mu.RLock()
	id, ok := t.lookupAtomRLocked(a)
	if ok {
		t.touchAtom(id)
	}
	t.mu.RUnlock()
	if ok {
		return id
	}
	return t.internAtomSlow(a)
}

// LookupAtom reports the ID of a ground atom without interning it.
func (t *Table) LookupAtom(a ast.Atom) (AtomID, bool) {
	t.mu.RLock()
	id, ok := t.lookupAtomRLocked(a)
	t.mu.RUnlock()
	return id, ok
}

// lookupAtomRLocked probes the atom maps under a held read lock. It must not
// intern anything, so unseen symbols or terms report a miss directly.
func (t *Table) lookupAtomRLocked(a ast.Atom) (AtomID, bool) {
	p, ok := t.preds[predKey{a.Pred, len(a.Args)}]
	if !ok {
		return 0, false
	}
	switch len(a.Args) {
	case 0:
		id, ok := t.atoms0[p]
		return id, ok
	case 1:
		c0, ok := t.lookupCodeLocked(a.Args[0])
		if !ok {
			return 0, false
		}
		id, ok := t.atoms1[key1{p, c0}]
		return id, ok
	case 2:
		c0, ok := t.lookupCodeLocked(a.Args[0])
		if !ok {
			return 0, false
		}
		c1, ok := t.lookupCodeLocked(a.Args[1])
		if !ok {
			return 0, false
		}
		id, ok := t.atoms2[key2{p, c0, c1}]
		return id, ok
	default:
		var buf [128]byte
		key, ok := t.atomNKeyLocked(buf[:0], p, a.Args)
		if !ok {
			return 0, false
		}
		id, ok := t.atomsN[string(key)]
		return id, ok
	}
}

// lookupCodeLocked is LookupCode under a held lock.
func (t *Table) lookupCodeLocked(term ast.Term) (Code, bool) {
	if c, ok, done := codeInline(term); done {
		return c, ok
	}
	switch term.Kind {
	case ast.SymbolTerm:
		id, ok := t.syms[term.Sym]
		return tagSym | Code(id), ok
	case ast.StringTerm:
		id, ok := t.syms[term.Sym]
		return tagStr | Code(id), ok
	case ast.ArithTerm:
		v, err := term.Eval(nil)
		if err != nil {
			return 0, false
		}
		return t.lookupCodeLocked(v)
	}
	i, ok := t.terms[term.String()]
	return tagTerm | Code(i), ok
}

func (t *Table) atomNKeyLocked(dst []byte, p PredID, args []ast.Term) ([]byte, bool) {
	dst = binary.AppendUvarint(dst, uint64(p))
	for _, a := range args {
		c, ok := t.lookupCodeLocked(a)
		if !ok {
			return nil, false
		}
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	return dst, true
}

func (t *Table) internAtomSlow(a ast.Atom) AtomID {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.predLocked(predKey{a.Pred, len(a.Args)})
	var codes [8]Code
	cs := codes[:0]
	for _, arg := range a.Args {
		c, ok := t.codeOfLocked(arg)
		if !ok {
			panic("intern: atom " + a.String() + " is not ground")
		}
		cs = append(cs, c)
	}
	return t.internCodesLocked(p, cs, a)
}

// codeOfLocked is CodeOf under a held write lock.
func (t *Table) codeOfLocked(term ast.Term) (Code, bool) {
	if c, ok, done := codeInline(term); done {
		return c, ok
	}
	switch term.Kind {
	case ast.SymbolTerm:
		return tagSym | Code(t.symLocked(term.Sym)), true
	case ast.StringTerm:
		return tagStr | Code(t.symLocked(term.Sym)), true
	case ast.ArithTerm:
		v, err := term.Eval(nil)
		if err != nil {
			return 0, false
		}
		return t.codeOfLocked(v)
	}
	key := term.String()
	if i, ok := t.terms[key]; ok {
		t.touchTerm(i)
		return tagTerm | Code(i), true
	}
	i := uint32(len(t.termList))
	t.termList = append(t.termList, term)
	t.termEpochs = append(t.termEpochs, t.curEpoch())
	t.terms[key] = i
	t.approxBytes += int64(len(key)) + termBytes
	return tagTerm | Code(i), true
}

// internCodesLocked inserts (or finds) the atom for pred+codes. When mat is
// non-zero it is stored as the materialized form; otherwise the atom is
// decoded from the codes.
func (t *Table) internCodesLocked(p PredID, cs []Code, mat ast.Atom) AtomID {
	switch len(cs) {
	case 0:
		if id, ok := t.atoms0[p]; ok {
			t.touchAtom(id)
			return id
		}
		id := t.addAtomLocked(p, cs, mat)
		t.atoms0[p] = id
		return id
	case 1:
		k := key1{p, cs[0]}
		if id, ok := t.atoms1[k]; ok {
			t.touchAtom(id)
			return id
		}
		id := t.addAtomLocked(p, cs, mat)
		t.atoms1[k] = id
		return id
	case 2:
		k := key2{p, cs[0], cs[1]}
		if id, ok := t.atoms2[k]; ok {
			t.touchAtom(id)
			return id
		}
		id := t.addAtomLocked(p, cs, mat)
		t.atoms2[k] = id
		return id
	default:
		var buf [128]byte
		key := binary.AppendUvarint(buf[:0], uint64(p))
		for _, c := range cs {
			key = binary.AppendUvarint(key, uint64(c))
		}
		if id, ok := t.atomsN[string(key)]; ok {
			t.touchAtom(id)
			return id
		}
		id := t.addAtomLocked(p, cs, mat)
		t.atomsN[string(key)] = id
		return id
	}
}

func (t *Table) addAtomLocked(p PredID, cs []Code, mat ast.Atom) AtomID {
	if mat.Pred == "" {
		mat = t.materializeLocked(p, cs)
	}
	id := AtomID(len(t.atoms))
	off := uint32(len(t.args))
	t.args = append(t.args, cs...)
	t.atoms = append(t.atoms, atomEntry{pred: p, off: off, n: uint32(len(cs)), atom: mat})
	t.keys = append(t.keys, "")
	t.atomEpochs = append(t.atomEpochs, t.curEpoch())
	t.approxBytes += atomBytes + codeBytes*int64(len(cs))
	if len(t.atoms) > t.peakAtoms {
		t.peakAtoms = len(t.atoms)
	}
	if len(t.atoms) > t.peakShrink {
		t.peakShrink = len(t.atoms)
	}
	return id
}

func (t *Table) materializeLocked(p PredID, cs []Code) ast.Atom {
	info := t.predInfo[p]
	if len(cs) == 0 {
		return ast.Atom{Pred: info.name}
	}
	args := make([]ast.Term, len(cs))
	for i, c := range cs {
		args[i] = t.termOfLocked(c)
	}
	return ast.Atom{Pred: info.name, Args: args}
}

func (t *Table) termOfLocked(c Code) ast.Term {
	payload := c & payloadMask
	switch c & codeTagMask {
	case tagNum:
		return ast.Num(int64(uint64(payload)<<2) >> 2)
	case tagSym:
		return ast.Sym(t.symNames[payload])
	case tagStr:
		return ast.Str(t.symNames[payload])
	default:
		return t.termList[payload]
	}
}

// InternAtom0 interns a 0-ary atom by predicate.
func (t *Table) InternAtom0(p PredID) AtomID {
	t.mu.RLock()
	id, ok := t.atoms0[p]
	if ok {
		t.touchAtom(id)
	}
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.internCodesLocked(p, nil, ast.Atom{})
}

// InternAtom1 interns a unary atom from a predicate and an argument code.
func (t *Table) InternAtom1(p PredID, c0 Code) AtomID {
	t.mu.RLock()
	id, ok := t.atoms1[key1{p, c0}]
	if ok {
		t.touchAtom(id)
	}
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.internCodesLocked(p, []Code{c0}, ast.Atom{})
}

// InternAtom2 interns a binary atom from a predicate and argument codes.
func (t *Table) InternAtom2(p PredID, c0, c1 Code) AtomID {
	t.mu.RLock()
	id, ok := t.atoms2[key2{p, c0, c1}]
	if ok {
		t.touchAtom(id)
	}
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.internCodesLocked(p, []Code{c0, c1}, ast.Atom{})
}

// Atom returns the materialized form of an interned atom. The returned value
// shares its argument slice with the table and must not be modified.
func (t *Table) Atom(id AtomID) ast.Atom {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.atoms[id].atom
}

// AtomPred returns the predicate of an interned atom.
func (t *Table) AtomPred(id AtomID) PredID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.atoms[id].pred
}

// ArgCodes returns the argument codes of an interned atom. The slice aliases
// the table's arena and must not be modified.
func (t *Table) ArgCodes(id AtomID) []Code {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e := t.atoms[id]
	return t.args[e.off : e.off+e.n : e.off+e.n]
}

// NumAtoms returns the number of interned atoms.
func (t *Table) NumAtoms() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.atoms)
}

// KeyOf returns the canonical string key of an interned atom (identical to
// ast.Atom.Key), rendered once and cached.
func (t *Table) KeyOf(id AtomID) string {
	t.mu.RLock()
	k := t.keys[id]
	a := t.atoms[id].atom
	t.mu.RUnlock()
	if k != "" {
		return k
	}
	k = a.Key()
	t.mu.Lock()
	if t.keys[id] == "" {
		t.keys[id] = k
		t.approxBytes += int64(len(k))
	} else {
		k = t.keys[id]
	}
	t.mu.Unlock()
	return k
}

// SortByKey sorts parallel slices by the given cached-key slice. swap must
// exchange indices i and j in every aligned slice, including keys itself.
// It backs the key-ordered views of grounder output and answer sets.
func SortByKey(keys []string, swap func(i, j int)) {
	sort.Sort(&keySorter{keys: keys, swap: swap})
}

type keySorter struct {
	keys []string
	swap func(i, j int)
}

func (s *keySorter) Len() int           { return len(s.keys) }
func (s *keySorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *keySorter) Swap(i, j int)      { s.swap(i, j) }
