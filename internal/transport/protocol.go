package transport

import (
	"streamrule/internal/asp/ground"
	"streamrule/internal/asp/intern"
	"streamrule/internal/asp/solve"
)

// ProtocolVersion is bumped on any incompatible change to the message types
// below; a worker refuses a Hello with a version it does not speak.
// Version 2: dictionary-coded request deltas (WindowReq.Dict/Parts replace
// the raw triple window), multi-partition sessions with worker-side combine
// (Hello.Partitions/MaxCombinations), and the Desync response flag.
// Version 3: per-partition stat rows in WindowResp (PartTotalNS/PartItems —
// the per-partition load signal behind the coordinator's PartitionLoads)
// and byte-based memory budgets
// (Hello.MemoryBudgetBytes).
// Version 4: conflict-driven solving on workers (Hello.CDNL) — a v3 worker
// would silently solve with the wrong engine, skewing any ablation, so the
// field rides a version bump. Each window is solved independently; no solver
// state crosses windows.
// Version 5: checksummed frames (an 8-byte [len | crc32c] header replaces
// the bare 4-byte length prefix, so wire corruption is detected before the
// gob decoder sees a byte) and protocol-level heartbeats (WindowReq.Ping —
// the coordinator probes idle sessions between windows, detecting dead
// workers at ping cost instead of a full straggler deadline).
const ProtocolVersion = 5

// Hello opens a session: it carries everything the worker needs to build a
// full reasoner for one partition. Workers are program-agnostic processes —
// the program always travels with the session.
type Hello struct {
	// Version is the coordinator's ProtocolVersion.
	Version int
	// Program is the ASP program source text.
	Program string
	// Inpre lists the input predicate names.
	Inpre []string
	// Arities optionally overrides input-arity inference.
	Arities map[string]int
	// OutputPreds restricts answers to the given predicates (empty: all
	// derived predicates).
	OutputPreds []string
	// IncludeInputFacts keeps input atoms in answers (see reasoner.Config).
	IncludeInputFacts bool
	// MaxModels caps the answer sets computed per window (0 = all).
	MaxModels int
	// NaivePropagation selects the worker solver's legacy rescan propagator
	// (see solve.Options.NaivePropagation), so the ablation covers remote
	// partitions exactly like local ones.
	NaivePropagation bool
	// CDNL selects the worker solver's conflict-driven engine (see
	// solve.Options.CDNL). Learned clauses live for one window.
	CDNL bool
	// MaxAtoms aborts grounding beyond this many atoms (0 = no limit).
	MaxAtoms int
	// MemoryBudget bounds the worker's interning table: the worker session
	// rotates its (private) table between windows when the budget is
	// exceeded, exactly like a local budgeted engine.
	MemoryBudget int
	// MemoryBudgetBytes bounds the worker's interning table by approximate
	// retained bytes instead of entry count (0 = no byte budget). When both
	// budgets are set the session rotates when either is exceeded.
	MemoryBudgetBytes int64
	// Partitions is the number of partition reasoners this session hosts
	// (≥ 1; 0 is treated as 1). Every WindowReq ships one PartReq per
	// partition, and the worker combines the partitions' answers before
	// responding — one combined wire set stream per window.
	Partitions int
	// MaxCombinations caps the worker-side answer-set cross product (0 =
	// the reasoner default), matching the coordinator's combine cap.
	MaxCombinations int
}

// HelloAck answers a Hello. An empty Err accepts the session.
type HelloAck struct {
	Err string
}

// WindowReq ships one window (the coordinator-routed sub-windows of this
// session's partitions) to the worker. Triples travel in wire form: the
// coordinator→worker session dictionary assigns every subject/predicate/
// object string a small index the first time it is referenced (Dict carries
// the new entries), and each triple is three such indexes — on repeating
// vocabularies a steady-state request ships indexes only.
type WindowReq struct {
	// Seq numbers requests per session, starting at 1; the response echoes
	// it. A mismatch means the stream desynchronized.
	Seq uint64
	// Ping marks a protocol-level heartbeat: the server echoes an empty
	// response carrying the sequence number without touching the session.
	// All other fields are ignored on a ping.
	Ping bool
	// Scratch forces from-scratch processing (the coordinator's Process
	// path). When false the worker maintains its grounding incrementally
	// across windows.
	Scratch bool
	// Dict is the request-dictionary delta this request's triples decode
	// against (the coordinator→worker mirror of WindowResp.Dict).
	Dict intern.DictDelta
	// Parts holds one entry per session partition, in Hello.Partitions
	// order.
	Parts []PartReq
}

// PartReq is one partition's window payload: either the full sub-window or
// the delta against the previously shipped one.
type PartReq struct {
	// Full marks Added as the complete sub-window (Retracted empty) — the
	// first window of a session, the scratch path, and the fallback when a
	// delta would not be smaller.
	Full bool
	// Added/Retracted are wire-coded triples, three dictionary symbol
	// indexes (subject, predicate, object) per triple.
	Added, Retracted []uint64
	// WindowLen is the expected sub-window size after applying the delta —
	// the consistency check that turns a lost update into a detected desync
	// instead of silently wrong answers.
	WindowLen int
}

// WindowResp returns one window's result. Answer sets travel in portable
// wire form: Dict carries the session-dictionary delta (new symbols only),
// and each element of Answers re-keys through it. For multi-partition
// sessions the answers are the worker-side combination across the session's
// partitions, and the statistics aggregate over them (latency maxima, work
// sums).
type WindowResp struct {
	// Seq echoes the request.
	Seq uint64
	// Err is a worker-side processing error (grounding/solving); the
	// session remains usable unless Desync is also set.
	Err string
	// Desync reports that the request could not be applied consistently
	// (dictionary desync, delta/window-length mismatch): the worker's
	// session state is no longer trustworthy and the coordinator must
	// redial, replaying dictionaries and full windows.
	Desync bool
	// Dict is the dictionary delta this response's wire sets decode against.
	Dict intern.DictDelta
	// Answers holds one wire set per (combined) answer set.
	Answers []intern.WireSet
	// Skipped counts window items outside the input predicates.
	Skipped int
	// Incremental reports that every session partition maintained the
	// window under the previous window's grounding instead of re-grounding.
	Incremental bool
	// ConvertNS/GroundNS/SolveNS/TotalNS are the worker-side phase
	// latencies in nanoseconds — maxima across the session's partitions,
	// which ground and solve in parallel (the coordinator measures the
	// round trip itself; these isolate compute from wire time). CombineNS
	// is the worker-side combine of the partitions' answers.
	ConvertNS, GroundNS, SolveNS, CombineNS, TotalNS int64
	// GroundStats/SolveStats are the worker engine statistics, summed over
	// the session's partitions.
	GroundStats ground.Stats
	SolveStats  solve.Stats
	// LiveAtoms/Rotations snapshot the worker's interning table after the
	// window (observability for budget sizing).
	LiveAtoms int
	Rotations int
	// PartTotalNS/PartItems break the window down per session partition, in
	// Hello.Partitions order: each partition's end-to-end compute time in
	// nanoseconds and its routed input-item count. These rows fill the
	// coordinator's per-partition load rows (DPR.PartitionLoads).
	PartTotalNS []int64
	PartItems   []int
}
