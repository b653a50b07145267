package streamrule

import (
	"crypto/tls"
	"fmt"
	"time"

	"streamrule/internal/asp/ast"
	"streamrule/internal/asp/parser"
	"streamrule/internal/asp/solve"
	"streamrule/internal/atomdep"
	"streamrule/internal/core"
	"streamrule/internal/dfp"
	"streamrule/internal/rdf"
	"streamrule/internal/reasoner"
	"streamrule/internal/transport"
)

// Triple is an RDF statement <subject, predicate, object>.
type Triple = rdf.Triple

// AnswerSet is a set of ground atoms produced by the reasoner.
type AnswerSet = solve.AnswerSet

// Output is the result of reasoning over one window, including the latency
// breakdown (Convert / Ground / Solve / Partition / Combine, wall-clock
// Total, and the multi-core CriticalPath).
type Output = reasoner.Output

// Delta is the change of a window relative to the previously processed one,
// as reported by sliding windowers. Engines that receive deltas maintain
// their grounding incrementally across overlapping windows.
type Delta = reasoner.Delta

// Plan is a partitioning plan: the mapping from input predicates to the
// partitions their items are routed to.
type Plan = core.Plan

// Accuracy computes the answer accuracy of §III of the paper: the mean over
// produced answers of the best recall against any reference answer.
func Accuracy(got, ref []*AnswerSet) float64 { return reasoner.Accuracy(got, ref) }

// Program is a logic program together with its input predicates.
type Program struct {
	// AST is the parsed rule set.
	AST *ast.Program
	// Inpre lists the input predicates (inpre(P) in the paper).
	Inpre  []string
	source string
}

// LoadProgram parses an ASP rule set and attaches its input predicates. The
// program is checked for safety and every input predicate must occur in it.
func LoadProgram(src string, inpre []string) (*Program, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("streamrule: parse: %w", err)
	}
	if len(inpre) == 0 {
		return nil, fmt.Errorf("streamrule: no input predicates given")
	}
	return &Program{AST: prog, Inpre: inpre, source: src}, nil
}

// Source returns the original program text.
func (p *Program) Source() string { return p.source }

// Analyze runs the design-time input dependency analysis: extended
// dependency graph, input dependency graph, and partitioning plan.
func (p *Program) Analyze(resolution float64) (*core.Analysis, error) {
	return core.Analyze(p.AST, p.Inpre, resolution)
}

// MemoryStats surfaces the memory metrics of a budgeted engine: the
// configured budget and a snapshot of its interning table (live/peak
// entries, rotations, cumulative remap time).
type MemoryStats = reasoner.MemoryStats

// SolveStats is the solver's per-window work profile (Output.SolveStats):
// whether the window rode the stratified fast path, and — for residual
// windows — branching decisions, propagated assignments, stability checks,
// rules visited by propagation, worklist pushes, and support-source
// repairs. The rule-visit count is the headline metric of the solver's
// event-driven propagation engine; compare it against WithNaivePropagation.
// Under WithCDNL the conflict-driven counters are live too: conflicts hit,
// clauses learned, non-chronological backjumps, and loop nogoods derived by
// unfounded-set detection. ReusedClauses is always 0: learned clauses live
// for one window.
type SolveStats = solve.Stats

// options carries the functional options of the engine constructors.
type options struct {
	outputs          []string
	resolution       float64
	randomK          int
	randomSeed       int64
	maxModels        int
	atomFanout       int
	memoryBudget     int
	memoryBudgetB    int64
	naivePropagation bool
	cdnl             bool
	stragglerTimeout time.Duration
	maxInFlight      int
	dialer           transport.DialFunc
	tlsConf          *tls.Config
	heartbeat        time.Duration
	heartbeatTimeout time.Duration
	breaker          reasoner.BreakerOptions
}

// Option customizes engine construction.
type Option func(*options)

// WithOutputPredicates restricts answers to the given predicates (the events
// the downstream query consumes). Default: all derived predicates.
func WithOutputPredicates(preds ...string) Option {
	return func(o *options) { o.outputs = preds }
}

// WithResolution sets the Louvain resolution used when the input dependency
// graph is connected (default 1.0, as in the paper).
func WithResolution(r float64) Option {
	return func(o *options) { o.resolution = r }
}

// WithRandomPartitioning replaces the dependency-based partitioner with the
// k-way random partitioner (the PR_Ran_k baseline of the evaluation).
func WithRandomPartitioning(k int, seed int64) Option {
	return func(o *options) { o.randomK = k; o.randomSeed = seed }
}

// WithMaxModels limits the number of answer sets computed per partition.
func WithMaxModels(n int) Option {
	return func(o *options) { o.maxModels = n }
}

// WithMemoryBudget bounds the engine's interned-atom table for unbounded
// streams. When set (> 0) the engine owns a private interning table and
// rotates it — evicting atoms, symbols, and structured terms that no live
// state references — whenever the table holds more than maxAtoms atoms
// after a window. Required for streams that mint fresh constants every
// window (timestamps, unique event IDs), whose table would otherwise grow
// without bound; answers are unchanged by eviction. Inspect the effect via
// Stats().
//
// Lifetime of returned answers: budgeted windows materialize their answer
// sets eagerly, so the atoms, keys, and key-based operations of sets
// retained across windows stay valid indefinitely. The sets' raw interned
// IDs (AnswerSet.IDs) are valid only until the next window — a later
// rotation renumbers the table underneath them.
func WithMemoryBudget(maxAtoms int) Option {
	return func(o *options) { o.memoryBudget = maxAtoms }
}

// WithMemoryBudgetBytes bounds the engine's interning table by approximate
// retained BYTES instead of entry count — the successor of WithMemoryBudget,
// with identical rotation semantics and answer guarantees. Entry counts are
// a poor proxy for heap: N atoms over long symbols blow a real memory budget
// that N short ones never approach. Both knobs may be combined; the table
// rotates when either is exceeded. Inspect the effect via Stats() (the table
// snapshot reports its approximate bytes).
func WithMemoryBudgetBytes(maxBytes int64) Option {
	return func(o *options) { o.memoryBudgetB = maxBytes }
}

// WithNaivePropagation selects the solver's legacy rescan-to-fixpoint
// propagator instead of the counter/worklist engine — the ablation baseline
// the residual benchmarks compare against. The full answer-set enumeration
// is identical either way; only the work profile (Output.SolveStats)
// differs. Under WithMaxModels the engines may return different subsets of
// that enumeration, because they branch in different orders. There is no
// reason to set this outside benchmarks and differential tests.
func WithNaivePropagation() Option {
	return func(o *options) { o.naivePropagation = true }
}

// WithCDNL selects the solver's conflict-driven engine: 1UIP conflict
// analysis with non-chronological backjumping, activity-driven branching,
// unfounded-set detection that turns positive loops into loop nogoods
// during propagation (so non-disjunctive candidates skip the reduct-based
// stability check entirely), and a learned-clause database that lives for
// one window, so each window's search depends only on that window's ground
// program. The answer sets are identical to the default engine's; only the
// work profile (Output.SolveStats: Conflicts, Learned, Backjumps,
// LoopNogoods) and its scaling differ. Mutually
// exclusive with WithNaivePropagation, which wins if both are set.
func WithCDNL() Option {
	return func(o *options) { o.cdnl = true }
}

// WithAtomPartitioning enables the atom-level extension (the paper's §VI
// future work): communities whose rules join on a single key are further
// hash-split into m sub-partitions by key value, multiplying parallelism
// beyond the number of predicate-level components. Communities the analysis
// cannot prove splittable stay whole, so answers remain exact.
func WithAtomPartitioning(m int) Option {
	return func(o *options) { o.atomFanout = m }
}

func buildOptions(opts []Option) options {
	o := options{resolution: 1.0}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

func (p *Program) config(o options) reasoner.Config {
	cfg := reasoner.Config{Program: p.AST, Inpre: p.Inpre, OutputPreds: o.outputs}
	if len(cfg.OutputPreds) == 0 && len(p.AST.Shows) > 0 {
		// #show declarations in the program define the default projection.
		for _, s := range p.AST.Shows {
			cfg.OutputPreds = append(cfg.OutputPreds, s.Pred)
		}
	}
	cfg.SolveOpts.MaxModels = o.maxModels
	cfg.SolveOpts.NaivePropagation = o.naivePropagation
	cfg.SolveOpts.CDNL = o.cdnl && !o.naivePropagation
	cfg.MemoryBudget = o.memoryBudget
	cfg.MemoryBudgetBytes = o.memoryBudgetB
	return cfg
}

// Engine is the baseline reasoner R: one grounder+solver pass over the whole
// window.
type Engine struct {
	r *reasoner.R
}

// NewEngine builds the baseline engine for the program.
func NewEngine(p *Program, opts ...Option) (*Engine, error) {
	o := buildOptions(opts)
	r, err := reasoner.NewR(p.config(o))
	if err != nil {
		return nil, err
	}
	return &Engine{r: r}, nil
}

// Reason processes one window of triples, grounding from scratch.
func (e *Engine) Reason(window []Triple) (*Output, error) { return e.r.Process(window) }

// ReasonDelta processes one window given its delta relative to the previous
// window (nil when unknown). For programs the incremental grounder supports
// (stratified, no choice/disjunction/aggregates), consecutive overlapping
// windows are maintained under the delta instead of re-grounded — the big
// latency lever for sliding windows; everything else falls back to Reason
// semantics automatically and produces identical answers either way.
func (e *Engine) ReasonDelta(window []Triple, d *Delta) (*Output, error) {
	return e.r.ProcessDelta(window, d)
}

// Stats returns the engine's memory metrics (see WithMemoryBudget).
func (e *Engine) Stats() MemoryStats { return e.r.Stats() }

// ParallelEngine is the partitioned reasoner PR of the extended StreamRule
// framework. By default it partitions by the dependency plan derived from
// the program; WithRandomPartitioning switches to the random baseline.
type ParallelEngine struct {
	pr   *reasoner.PR
	plan *Plan
}

// buildPartitioner constructs the partitioner the options select — random,
// atom-level, or (default) the dependency plan — running the design-time
// analysis where needed. Shared by the parallel and distributed engines.
func buildPartitioner(p *Program, o options) (reasoner.Partitioner, *Plan, error) {
	if o.randomK > 0 {
		return reasoner.NewRandomPartitioner(o.randomK, o.randomSeed), nil, nil
	}
	a, err := p.Analyze(o.resolution)
	if err != nil {
		return nil, nil, err
	}
	plan := a.Plan
	if o.atomFanout > 0 {
		arities, err := dfp.InferArities(p.AST, p.Inpre)
		if err != nil {
			return nil, nil, err
		}
		keys := atomdep.Analyze(p.AST, plan)
		part, err := reasoner.NewAtomPartitioner(plan, keys, arities, o.atomFanout)
		if err != nil {
			return nil, nil, err
		}
		return part, plan, nil
	}
	return reasoner.NewPlanPartitioner(plan), plan, nil
}

// NewParallelEngine builds a parallel engine, running the dependency
// analysis at construction (design) time.
func NewParallelEngine(p *Program, opts ...Option) (*ParallelEngine, error) {
	o := buildOptions(opts)
	part, plan, err := buildPartitioner(p, o)
	if err != nil {
		return nil, err
	}
	pr, err := reasoner.NewPR(p.config(o), part)
	if err != nil {
		return nil, err
	}
	return &ParallelEngine{pr: pr, plan: plan}, nil
}

// Plan returns the dependency partitioning plan, or nil when random
// partitioning is configured.
func (e *ParallelEngine) Plan() *Plan { return e.plan }

// Partitions returns the number of parallel partitions.
func (e *ParallelEngine) Partitions() int { return e.pr.NumPartitions() }

// Reason processes one window of triples: partition, reason in parallel,
// combine.
func (e *ParallelEngine) Reason(window []Triple) (*Output, error) { return e.pr.Process(window) }

// ReasonDelta is the incremental Reason for overlapping windows: every
// partition reasoner maintains its grounding across windows (deriving its
// own partition-level delta), with automatic fallback to from-scratch
// grounding where incremental maintenance does not apply.
func (e *ParallelEngine) ReasonDelta(window []Triple, d *Delta) (*Output, error) {
	return e.pr.ProcessDelta(window, d)
}

// Stats returns the engine's memory metrics (see WithMemoryBudget). All
// partition reasoners share one interning table, so one snapshot covers
// them all.
func (e *ParallelEngine) Stats() MemoryStats { return e.pr.Stats() }
