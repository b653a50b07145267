// Package solve computes the stable models (answer sets) of ground programs
// produced by the grounder.
//
// Because the grounder fully evaluates stratified programs, the common case
// is a ground program with no residual rules, whose unique answer set is the
// set of certain atoms (fast path). Residual rules — produced by negation
// cycles, choice rules, or disjunctive heads — are handled by a DPLL-style
// search whose propagation is event-driven: every rule carries incrementally
// maintained counters (undecided body literals, false body literals,
// true/undecided head atoms) that assignments update through per-atom
// occurrence lists, and a worklist re-examines only the rules whose counters
// crossed an inference threshold. Support is tracked by source pointers —
// each non-false atom remembers one rule that can still support it, and only
// atoms whose source dies are re-examined — instead of rescanning every
// atom. The legacy rescan-to-fixpoint propagator is retained behind
// Options.NaivePropagation as the differential/benchmark baseline. Every
// total assignment is verified stable by the reduct test (least-model
// comparison for normal programs, a minimal model search for disjunctive
// ones), so both propagators produce identical answer sets.
//
// The solver runs entirely on interned atom IDs: the ground program's ID
// rules are mapped onto a dense local index space for the search, and answer
// sets are sorted ID sets that materialize textual atoms lazily, only when
// an API consumer asks for them.
package solve

import (
	"slices"
	"strings"
	"sync"

	"streamrule/internal/asp/ast"
	"streamrule/internal/asp/ground"
	"streamrule/internal/asp/intern"
)

// Options configures the solver.
type Options struct {
	// MaxModels limits the number of answer sets returned (0 = all).
	MaxModels int
	// NaivePropagation selects the legacy propagator, which rescans every
	// rule to a fixpoint on each propagation pass and re-derives support by
	// scanning all atoms, instead of the counter/worklist engine. It exists
	// as the differential-test oracle and benchmark baseline; the full
	// answer-set enumeration is identical either way, only the work profile
	// differs. Under a MaxModels cap the engines may return different
	// subsets of that enumeration: they branch in different orders (local
	// index vs activity), so the cap can bite on different prefixes.
	NaivePropagation bool
	// CDNL selects the conflict-driven nogood-learning engine: 1UIP clause
	// learning with non-chronological backjumping, VSIDS-style decision
	// activity with decay, and source-pointer unfounded-set detection that
	// turns positive loops into loop nogoods during propagation instead of
	// discovering them at the stability check. Answer-set enumeration is
	// identical to the other engines (enforced by the differential and fuzz
	// oracles); only the work profile differs, and under a MaxModels cap
	// the enumerated prefix may differ because decisions follow dynamic
	// activity. Ignored when NaivePropagation is set — the naive engine is
	// the oracle and stays untouched. Learned clauses and activity live for
	// one Solve call.
	CDNL bool
}

// Stats reports work done by a solving run.
type Stats struct {
	// FastPath is true when the run never engaged the search: the ground
	// program had no residual rules and the answer set was read off the
	// certain atoms directly, or the grounder had already proven the
	// program inconsistent.
	FastPath bool
	// Choices counts branching decisions.
	Choices int
	// Propagations counts atom assignments made by propagation.
	Propagations int
	// StabilityChecks counts candidate models submitted to the reduct test.
	StabilityChecks int
	// RuleVisits counts rule examinations by the propagator: per-rule state
	// recomputations for the naive propagator, worklist pops plus
	// source-candidate checks for the counter engine. The ratio between the
	// two modes is the headline win of event-driven propagation.
	RuleVisits int
	// QueuePushes counts rules enqueued on the propagation worklist
	// (counter engine only; 0 under NaivePropagation).
	QueuePushes int
	// SourceRepairs counts atoms whose support source pointer died and had
	// to be re-derived by scanning the atom's head occurrences (counter
	// engine only; 0 under NaivePropagation).
	SourceRepairs int
	// Conflicts counts propagation conflicts analyzed by the CDNL engine
	// (0 for the other engines, which count failed branches nowhere).
	Conflicts int
	// Learned counts clauses learned by 1UIP conflict analysis (CDNL only).
	Learned int
	// Backjumps counts non-chronological backjumps: conflict analyses whose
	// asserting clause jumped past at least one decision level instead of
	// undoing just the deepest one (CDNL only).
	Backjumps int
	// LoopNogoods counts loop nogoods materialized by unfounded-set
	// detection — positive loops refuted during propagation rather than at
	// the stability check (CDNL only).
	LoopNogoods int
	// ReusedClauses is always 0: no solver state crosses Solve calls. It
	// is kept because the benchmark's counter set reads it.
	ReusedClauses int
}

// Add accumulates another run's counters into s (every numeric field).
// FastPath is deliberately left alone — it is a property of one run, and
// aggregators (a partitioned reasoner, a CLI total) combine it with
// whatever rule fits their semantics.
func (s *Stats) Add(o Stats) {
	s.Choices += o.Choices
	s.Propagations += o.Propagations
	s.StabilityChecks += o.StabilityChecks
	s.RuleVisits += o.RuleVisits
	s.QueuePushes += o.QueuePushes
	s.SourceRepairs += o.SourceRepairs
	s.Conflicts += o.Conflicts
	s.Learned += o.Learned
	s.Backjumps += o.Backjumps
	s.LoopNogoods += o.LoopNogoods
	s.ReusedClauses += o.ReusedClauses
}

// Result is the outcome of a solving run.
type Result struct {
	Models []*AnswerSet
	Stats  Stats
}

// AnswerSet is a set of ground atoms, held as a sorted slice of interned
// atom IDs. Set operations (Union, Equal, IntersectCount) run on the IDs;
// the textual atoms and keys are materialized lazily at the API boundary
// and cached. An AnswerSet is immutable and safe for concurrent use.
type AnswerSet struct {
	tab *intern.Table
	ids []intern.AtomID // sorted ascending, deduplicated

	mat     sync.Once
	atoms   []ast.Atom // sorted by key
	keys    []string   // aligned with atoms
	keysOne sync.Once
	keySet  map[string]bool
}

// NewAnswerSet builds an answer set from atoms (deduplicated). The atoms are
// interned into the process-wide default table — acceptable for one-shot
// CLI/test use only. Engines with private (budgeted, rotatable) tables must
// use NewAnswerSetIn instead: the default table refuses rotation, so every
// atom leaked into it stays resident for the life of the process.
func NewAnswerSet(atoms []ast.Atom) *AnswerSet {
	return NewAnswerSetIn(intern.Default(), atoms)
}

// NewAnswerSetIn builds an answer set from atoms (deduplicated), interning
// them into the caller's table — the table-threading constructor that keeps
// multi-tenant and budgeted engines out of the shared default table.
func NewAnswerSetIn(tab *intern.Table, atoms []ast.Atom) *AnswerSet {
	ids := make([]intern.AtomID, len(atoms))
	for i, a := range atoms {
		ids[i] = tab.InternAtom(a)
	}
	return FromIDs(tab, ids)
}

// FromIDs builds an answer set from interned atom IDs. It takes ownership of
// the slice (sorting and deduplicating it in place).
func FromIDs(tab *intern.Table, ids []intern.AtomID) *AnswerSet {
	slices.Sort(ids)
	ids = slices.Compact(ids)
	return &AnswerSet{tab: tab, ids: ids}
}

// IDs returns the sorted interned atom IDs. The slice must not be modified.
func (s *AnswerSet) IDs() []intern.AtomID { return s.ids }

// Remap rewrites the set's IDs through a table rotation's remap and
// re-sorts them. It reports false when an atom was evicted (the set then
// holds a partially remapped prefix and must be discarded). Remap is the one
// exception to the set's immutability: only the producing reasoner may call
// it, after rotating the table the IDs refer to and before any concurrent
// use of the set. Already materialized atoms and keys stay valid — rotation
// changes IDs, not renderings.
func (s *AnswerSet) Remap(rm *intern.Remap) bool {
	for i, id := range s.ids {
		nid, ok := rm.Atom(id)
		if !ok {
			return false
		}
		s.ids[i] = nid
	}
	slices.Sort(s.ids)
	return true
}

// Table returns the interning table the IDs refer to.
func (s *AnswerSet) Table() *intern.Table { return s.tab }

// materialize renders the atoms and keys, sorted by key, once.
func (s *AnswerSet) materialize() {
	s.mat.Do(func() {
		atoms := make([]ast.Atom, len(s.ids))
		keys := make([]string, len(s.ids))
		for i, id := range s.ids {
			atoms[i] = s.tab.Atom(id)
			keys[i] = s.tab.KeyOf(id)
		}
		intern.SortByKey(keys, func(i, j int) {
			atoms[i], atoms[j] = atoms[j], atoms[i]
			keys[i], keys[j] = keys[j], keys[i]
		})
		s.atoms, s.keys = atoms, keys
	})
}

// Atoms returns the atoms in key order. The slice must not be modified.
func (s *AnswerSet) Atoms() []ast.Atom {
	s.materialize()
	return s.atoms
}

// Len returns the number of atoms.
func (s *AnswerSet) Len() int { return len(s.ids) }

// Contains reports membership by atom key.
func (s *AnswerSet) Contains(key string) bool {
	s.keysOne.Do(func() {
		s.materialize()
		s.keySet = make(map[string]bool, len(s.keys))
		for _, k := range s.keys {
			s.keySet[k] = true
		}
	})
	return s.keySet[key]
}

// Keys returns the sorted atom keys.
func (s *AnswerSet) Keys() []string {
	s.materialize()
	return s.keys
}

// Equal reports whether two answer sets contain the same atoms.
func (s *AnswerSet) Equal(o *AnswerSet) bool {
	if s.tab == o.tab {
		return slices.Equal(s.ids, o.ids)
	}
	if s.Len() != o.Len() {
		return false
	}
	for _, k := range s.Keys() {
		if !o.Contains(k) {
			return false
		}
	}
	return true
}

// Union returns a new answer set with the atoms of both sets. Sets on the
// same table merge on the ID fast path; a cross-table union materializes
// into the RECEIVER's table (never the process-wide default), so unions of
// per-tenant answer sets stay inside tables their owners can rotate.
func (s *AnswerSet) Union(o *AnswerSet) *AnswerSet {
	if s.tab != o.tab {
		merged := make([]ast.Atom, 0, s.Len()+o.Len())
		merged = append(merged, s.Atoms()...)
		merged = append(merged, o.Atoms()...)
		return NewAnswerSetIn(s.tab, merged)
	}
	merged := make([]intern.AtomID, 0, s.Len()+o.Len())
	i, j := 0, 0
	for i < len(s.ids) && j < len(o.ids) {
		switch {
		case s.ids[i] < o.ids[j]:
			merged = append(merged, s.ids[i])
			i++
		case s.ids[i] > o.ids[j]:
			merged = append(merged, o.ids[j])
			j++
		default:
			merged = append(merged, s.ids[i])
			i++
			j++
		}
	}
	merged = append(merged, s.ids[i:]...)
	merged = append(merged, o.ids[j:]...)
	return &AnswerSet{tab: s.tab, ids: merged}
}

// IntersectCount returns the number of atoms shared with o.
func (s *AnswerSet) IntersectCount(o *AnswerSet) int {
	if s.tab != o.tab {
		n := 0
		for _, k := range s.Keys() {
			if o.Contains(k) {
				n++
			}
		}
		return n
	}
	n := 0
	i, j := 0, 0
	for i < len(s.ids) && j < len(o.ids) {
		switch {
		case s.ids[i] < o.ids[j]:
			i++
		case s.ids[i] > o.ids[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// String renders the answer set as {a1, a2, ...}.
func (s *AnswerSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range s.Keys() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(k)
	}
	b.WriteByte('}')
	return b.String()
}

// Solve computes the answer sets of the ground program.
func Solve(gp *ground.Program, opts Options) (*Result, error) {
	res := &Result{}
	if gp.Inconsistent {
		// The grounder proved the certain atoms violate a constraint: no
		// answer sets, and no search was engaged.
		res.Stats.FastPath = true
		return res, nil
	}
	tab, certainIDs, ruleIDs := idForm(gp)
	if len(ruleIDs) == 0 {
		ids := make([]intern.AtomID, len(certainIDs))
		copy(ids, certainIDs)
		res.Models = []*AnswerSet{FromIDs(tab, ids)}
		res.Stats.FastPath = true
		return res, nil
	}

	s := &solver{opts: opts, naive: opts.NaivePropagation, tab: tab, certain: certainIDs, out: res}
	// Atom IDs are dense table indices, so the ID -> local-index mapping is
	// a plain slice lookup rather than a map.
	local := make([]int32, tab.NumAtoms())
	for i := range local {
		local[i] = -1
	}
	idx := func(id intern.AtomID) int {
		if i := local[id]; i >= 0 {
			return int(i)
		}
		i := len(s.ids)
		local[id] = int32(i)
		s.ids = append(s.ids, id)
		return i
	}
	// All rule literal lists share one backing arena (sized by a counting
	// pass) instead of three allocations per rule.
	lits := 0
	for _, r := range ruleIDs {
		lits += len(r.Head) + len(r.Pos) + len(r.Neg)
	}
	arena := make([]int, 0, lits)
	grab := func(ids []intern.AtomID) []int {
		start := len(arena)
		for _, id := range ids {
			arena = append(arena, idx(id))
		}
		return arena[start:len(arena):len(arena)]
	}
	// Duplicate occurrences of an atom within one list are collapsed: a
	// duplicated body literal or disjunctive head is semantically redundant
	// (a ∨ a = a, b ∧ b = b) but would skew the per-occurrence counters the
	// propagation engine maintains (e.g. "no other head atom is true" on
	// a | a). Choice-rule heads are left untouched — their cardinality
	// bounds count occurrences, exactly as the stability check does.
	dedup := func(l []int) []int {
		slices.Sort(l)
		return slices.Compact(l)
	}
	s.rules = make([]irule, 0, len(ruleIDs))
	for _, r := range ruleIDs {
		ir := irule{choice: r.Choice, lo: r.Lower, hi: r.Upper}
		ir.head = grab(r.Head)
		ir.pos = grab(r.Pos)
		ir.neg = grab(r.Neg)
		if !ir.choice {
			ir.head = dedup(ir.head)
		}
		ir.pos, ir.neg = dedup(ir.pos), dedup(ir.neg)
		s.rules = append(s.rules, ir)
	}
	s.init(len(s.ids))
	if opts.CDNL && !opts.NaivePropagation {
		s.cd = newCDNL(s)
		s.searchCDNL()
		return res, nil
	}
	s.search(0)
	return res, nil
}

// idForm returns the ground program's interned form, interning it on the fly
// when the ID form is absent or incomplete. The fallback interns into the
// program's OWN table whenever it has one — falling back to the process-wide
// default only for table-less programs (hand-constructed in tests) — so a
// budgeted or per-tenant engine never leaks atoms into the shared,
// rotation-refusing default table.
func idForm(gp *ground.Program) (*intern.Table, []intern.AtomID, []ground.IRule) {
	if gp.Table != nil && len(gp.RuleIDs) == len(gp.Rules) && len(gp.CertainIDs) == len(gp.Certain) {
		return gp.Table, gp.CertainIDs, gp.RuleIDs
	}
	tab := gp.Table
	if tab == nil {
		tab = intern.Default()
	}
	certain := make([]intern.AtomID, len(gp.Certain))
	for i, a := range gp.Certain {
		certain[i] = tab.InternAtom(a)
	}
	rules := make([]ground.IRule, len(gp.Rules))
	for i, r := range gp.Rules {
		ir := ground.IRule{Choice: r.Choice, Lower: r.Lower, Upper: r.Upper}
		for _, h := range r.Head {
			ir.Head = append(ir.Head, tab.InternAtom(h))
		}
		for _, l := range r.Body {
			if l.Kind != ast.AtomLiteral {
				continue // comparisons were evaluated by the grounder
			}
			id := tab.InternAtom(l.Atom)
			if l.Neg {
				ir.Neg = append(ir.Neg, id)
			} else {
				ir.Pos = append(ir.Pos, id)
			}
		}
		rules[i] = ir
	}
	return tab, certain, rules
}
