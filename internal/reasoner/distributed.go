// Coordinator side of the distributed reasoner: DPR ships each window's
// partitions to remote workers over internal/transport and re-interns the
// wire-form answers through cached per-worker dictionaries. The wire path
// is symmetric and pipelined: requests travel as dictionary-coded deltas
// against the previously shipped window (a coordinator→worker WireEncoder
// mirrors the worker→coordinator answer dictionaries), and up to
// MaxInFlight windows may be outstanding per session (Submit/Collect),
// overlapping shipping with remote grounding and solving.

package reasoner

import (
	"crypto/tls"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"streamrule/internal/asp/intern"
	"streamrule/internal/asp/solve"
	"streamrule/internal/rdf"
	"streamrule/internal/transport"
)

// DPROptions configures the distributed parallel reasoner.
type DPROptions struct {
	// Workers lists worker addresses (host:port). Partitions are assigned
	// round-robin: partition i belongs to Workers[i mod len(Workers)], and
	// each distinct worker gets ONE session hosting all of its partitions
	// (the worker reasons over them in parallel and combines their answers
	// before responding).
	Workers []string
	// ProgramSource is the ASP program text shipped to workers in the
	// session handshake (workers are program-agnostic; reasoner.Config
	// holds only the parsed form).
	ProgramSource string
	// StragglerTimeout bounds one remote round (ship window, reason,
	// receive answers). A session that misses it is processed locally
	// and redialed for the next window. 0 = 10s.
	StragglerTimeout time.Duration
	// DialTimeout bounds session establishment (0 = transport default).
	DialTimeout time.Duration
	// MaxFrame bounds a protocol frame (0 = transport.DefaultMaxFrame).
	MaxFrame int
	// MaxInFlight bounds the number of submitted-but-uncollected windows
	// per session (0 or 1 = strict lockstep, the pre-pipelining behavior).
	// Depth d overlaps the shipping and partitioning of window n+1 with
	// the remote compute of windows n-d+2..n; Collect still yields windows
	// strictly in submission order.
	MaxInFlight int
	// Dialer overrides how worker connections are established (nil = plain
	// TCP). This is the seam the chaos harness (internal/chaos) injects
	// faults through; production deployments use it for custom networking.
	Dialer transport.DialFunc
	// TLS wraps every worker connection in TLS (mutual when the config
	// carries a client certificate); workers must serve TLS to match.
	TLS *tls.Config
	// HeartbeatInterval is how long a session may sit idle (no successful
	// round) before the next submit probes it with a protocol-level ping,
	// detecting a dead worker at ping cost instead of a full straggler
	// deadline. 0 = 2s; negative disables probing. Probes are only sent
	// when the session has zero windows in flight — a ping would otherwise
	// consume an in-flight window's response.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout bounds one probe round trip (0 = StragglerTimeout/4).
	HeartbeatTimeout time.Duration
	// Breaker tunes the per-session circuit breaker that quarantines
	// failing workers between redial attempts (the zero value uses the
	// BreakerOptions defaults).
	Breaker BreakerOptions
}

// TransportStats aggregates the distributed reasoner's wire metrics across
// all worker sessions since construction.
type TransportStats struct {
	// RemoteWindows counts partition windows answered by a worker;
	// LocalFallbacks counts partition windows processed locally because the
	// session was down, timed out, or desynchronized.
	RemoteWindows, LocalFallbacks int64
	// Redials counts session re-establishments after a transport failure
	// (the initial dials are not counted).
	Redials int64
	// BytesSent/BytesReceived are cumulative wire bytes across sessions,
	// redials included.
	BytesSent, BytesReceived int64
	// DictRefs counts symbol/predicate/term references resolved through the
	// per-worker response dictionaries while decoding answers; DictShipped
	// counts the dictionary entries that had to be shipped in deltas. Their
	// ratio is the response-side dictionary hit rate — on a repeating
	// vocabulary it approaches 1 because every symbol crosses the wire
	// exactly once.
	DictRefs, DictShipped int64
	// ReqDictRefs/ReqDictShipped are the request-side counterparts: symbol
	// references encoded into requests vs dictionary entries shipped in
	// request deltas (the coordinator→worker dictionary).
	ReqDictRefs, ReqDictShipped int64
	// Rounds counts worker requests shipped; Windows counts windows
	// processed (Collect completions). Bytes-per-window headline numbers
	// are BytesSent/Windows and BytesReceived/Windows.
	Rounds, Windows int64
	// FullPartWindows/DeltaPartWindows split the shipped partition windows
	// by payload form: complete sub-windows vs deltas against the previous
	// one.
	FullPartWindows, DeltaPartWindows int64
	// InFlightSum accumulates, over all rounds, the session's in-flight
	// depth right after the submit — InFlightSum/Rounds is the mean
	// pipeline occupancy (1.0 = lockstep).
	InFlightSum int64
	// WorkerRotations sums the table rotations last reported by each live
	// worker session, and WorkerLiveAtoms their live interned atoms — the
	// remote counterpart of MemoryStats.Table for budget sizing.
	WorkerRotations, WorkerLiveAtoms int64
	// Heartbeats counts protocol-level health probes sent to idle sessions
	// (see DPROptions.HeartbeatInterval). A probe that fails retires the
	// session before a window is risked on it.
	Heartbeats int64
	// CircuitOpens counts circuit-breaker opens across sessions: each one
	// is a worker quarantined after consecutive failures (or a failed
	// half-open probe). A steadily climbing count is a flapping worker.
	CircuitOpens int64
	// ChecksumFailures counts inbound frames rejected on a CRC mismatch.
	// Each one retired a session cleanly instead of feeding corrupt bytes
	// to the decoder; any nonzero value on a supposedly clean network is a
	// hardware or path problem worth chasing.
	ChecksumFailures int64
}

// DictHitRate returns the fraction of response-side dictionary references
// served without shipping a new entry (0 when nothing was decoded yet).
func (s TransportStats) DictHitRate() float64 {
	if s.DictRefs == 0 {
		return 0
	}
	return 1 - float64(s.DictShipped)/float64(s.DictRefs)
}

// ReqDictHitRate returns the request-side dictionary hit rate: the fraction
// of encoded symbol references that did not require shipping a dictionary
// entry (0 when nothing was encoded yet).
func (s TransportStats) ReqDictHitRate() float64 {
	if s.ReqDictRefs == 0 {
		return 0
	}
	return 1 - float64(s.ReqDictShipped)/float64(s.ReqDictRefs)
}

// MeanInFlight returns the mean pipeline depth observed at submit time
// (1.0 under lockstep; approaches MaxInFlight when the pipeline stays
// full).
func (s TransportStats) MeanInFlight() float64 {
	if s.Rounds == 0 {
		return 0
	}
	return float64(s.InFlightSum) / float64(s.Rounds)
}

// PartitionLoad is one partition's observed load in the most recently
// collected window, exposed for operators via DPR.PartitionLoads. AddWorker
// and RemoveWorker weigh partitions by its routed items.
type PartitionLoad struct {
	// Partition is the global partition index.
	Partition int
	// Worker is the address of the session the partition is assigned to.
	Worker string
	// Items is the number of window items routed into the partition.
	Items int
	// CP is the partition's end-to-end compute time for the window
	// (worker-reported for remote legs, measured for local fallbacks).
	CP time.Duration
	// Remote reports whether the partition was answered by its worker
	// (false: local fallback served it).
	Remote bool
}

// sessionTotals accumulates the wire counters of sessions removed from the
// fleet (RemoveWorker), so TransportStats survive membership changes.
type sessionTotals struct {
	remote, local, redials int64
	sent, recv             int64
	refs, shipped          int64
	reqRefs, reqShipped    int64
	crcFails, opens        int64
}

// dprSession is one worker's leg of the reasoner: a transport client, the
// response-dictionary decoder, the request-dictionary encoder, and the
// delta bases of the partitions it hosts. Counters of dead clients and
// dictionaries are folded into the accumulators on replacement so session
// totals survive redials.
type dprSession struct {
	addr  string
	parts []int // global partition indexes hosted by this session

	client *transport.Client
	dec    *intern.WireDecoder
	reqEnc *intern.WireEncoder

	// base holds the last successfully submitted sub-window per hosted
	// partition (parallel to parts); baseValid marks the delta chain
	// intact. Any failure — submit, await, desync — invalidates it, and
	// the next request ships full windows over a fresh session.
	base      [][]rdf.Triple
	baseValid bool

	accSent, accRecv          int64
	accRefs, accShipped       int64
	accReqRefs, accReqShipped int64
	accCrcFails               int64
	redials, remote, local    int64
	// Last worker-side table snapshot seen in a response.
	workerRotations, workerLiveAtoms int64
	// brk quarantines the session after consecutive failures — any failed
	// dial, round, heartbeat, or desync feeds it. While the circuit is
	// open the session is skipped (immediate local fallback): an
	// unreachable worker must cost the pipeline local-processing latency,
	// not a dial timeout per window.
	brk *breaker
	// lastOK is the last time this session completed a successful dial,
	// round, or heartbeat; the idle-probe clock.
	lastOK time.Time
}

// retire folds the live client/dictionary counters into the accumulators,
// drops the connection, and invalidates the delta bases.
func (ps *dprSession) retire() {
	if ps.client != nil {
		ps.accSent += ps.client.BytesSent()
		ps.accRecv += ps.client.BytesReceived()
		ps.accCrcFails += ps.client.ChecksumFailures()
		ps.client.Close()
		ps.client = nil
	}
	if ps.dec != nil {
		ps.accRefs += ps.dec.Refs()
		ps.accShipped += ps.dec.Shipped()
		ps.dec = nil
	}
	if ps.reqEnc != nil {
		ps.accReqRefs += ps.reqEnc.Refs()
		ps.accReqShipped += ps.reqEnc.Shipped()
		ps.reqEnc = nil
	}
	ps.baseValid = false
}

// pendingWindow is one submitted-but-uncollected window: everything Collect
// needs to finish it — the partitioned triples (for local fallback), the
// submit-time latencies, and which sessions a request actually reached.
type pendingWindow struct {
	start        time.Time
	scratch      bool
	parts        [][]rdf.Triple
	partitionLat time.Duration
	skipped      int
	legs         []pendingLeg
}

// pendingLeg records one session's submit outcome. client pins the exact
// client the request went out on: if the session redialed in the meantime,
// the response belongs to a dead stream and the leg falls back locally.
type pendingLeg struct {
	submitted bool
	client    *transport.Client
}

// DPR is the distributed parallel reasoner: the partitioning and combining
// handlers of PR with the k reasoner copies running on remote workers. Each
// worker holds one session hosting all of its partitions; windows ship as
// dictionary-coded deltas (a steady-state sliding window costs a few
// hundred bytes, not a re-serialization of the window) and answers come
// back worker-combined in portable wire form, re-interned into the
// coordinator's table through a cached per-worker dictionary.
//
// Every partition also keeps a local fallback reasoner: when a session is
// down, times out (straggler), or desynchronizes, its partitions are
// processed in-process for that window — answers are identical either way,
// only latency differs — and the session is redialed behind the scenes.
// Workers run with the configured MemoryBudget (each session owns a
// private, rotating table); the coordinator applies the same budget to its
// own answer table.
//
// Beyond the classic Process/ProcessDelta lockstep, DPR exposes the
// pipelined pair Submit/Collect: up to MaxInFlight windows may be in
// flight, and Collect yields their outputs strictly in submission order.
// DPR is not safe for concurrent use.
type DPR struct {
	part Partitioner
	opts DPROptions

	tab      *intern.Table
	locals   []*R
	sessions []*dprSession
	pending  []*pendingWindow

	budget  int
	liveBuf []intern.AtomID
	hello   transport.Hello
	diffBuf map[rdf.Triple]int

	rounds, windows       int64
	fullParts, deltaParts int64
	inFlightSum           int64
	heartbeats            int64

	// removed holds the folded counters of sessions dropped by
	// RemoveWorker; lastLoads is the per-partition load observed by the
	// most recent Collect.
	removed   sessionTotals
	lastLoads []PartitionLoad
}

// NewDPR builds a distributed reasoner: partitions are assigned round-robin
// over the worker addresses and each distinct worker gets one session
// hosting its partitions. The layout is static apart from AddWorker and
// RemoveWorker. Construction fails when no worker is reachable (a
// partially reachable fleet degrades to local fallback per session
// instead).
func NewDPR(cfg Config, part Partitioner, opts DPROptions) (*DPR, error) {
	if part == nil {
		return nil, fmt.Errorf("reasoner: nil partitioner")
	}
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("reasoner: no worker addresses")
	}
	if opts.ProgramSource == "" {
		return nil, fmt.Errorf("reasoner: DPR needs the program source to ship to workers")
	}
	if opts.StragglerTimeout <= 0 {
		opts.StragglerTimeout = 10 * time.Second
	}
	n := part.NumPartitions()
	if n < 1 {
		return nil, fmt.Errorf("reasoner: partitioner yields %d partitions", n)
	}

	dpr := &DPR{part: part, opts: opts, budget: cfg.MemoryBudget}
	// The coordinator owns a private table for decoded answers and local
	// fallbacks; budget rotation is coordinated here (workers rotate their
	// own tables independently).
	if cfg.GroundOpts.Intern == nil {
		cfg.GroundOpts.Intern = intern.NewTable()
	}
	dpr.tab = cfg.GroundOpts.Intern
	cfg.MemoryBudget = 0
	for i := 0; i < n; i++ {
		r, err := NewR(cfg)
		if err != nil {
			return nil, err
		}
		dpr.locals = append(dpr.locals, r)
	}
	dpr.hello = transport.Hello{
		Program:           opts.ProgramSource,
		Inpre:             cfg.Inpre,
		Arities:           map[string]int(cfg.Arities),
		OutputPreds:       cfg.OutputPreds,
		IncludeInputFacts: cfg.IncludeInputFacts,
		MaxModels:         cfg.SolveOpts.MaxModels,
		NaivePropagation:  cfg.SolveOpts.NaivePropagation,
		CDNL:              cfg.SolveOpts.CDNL,
		MaxAtoms:          cfg.GroundOpts.MaxAtoms,
		MemoryBudget:      dpr.budget,
	}

	// One session per worker; partitions are assigned round-robin
	// (partition i → worker i mod W). A worker beyond the partition count
	// starts empty and idles until AddWorker or RemoveWorker re-spreads the
	// partitions.
	w := len(opts.Workers)
	for wi := 0; wi < w; wi++ {
		ps := dpr.newSession(opts.Workers[wi])
		for p := wi; p < n; p += w {
			ps.parts = append(ps.parts, p)
		}
		dpr.sessions = append(dpr.sessions, ps)
	}
	reachable := false
	for _, ps := range dpr.sessions {
		if len(ps.parts) == 0 {
			continue
		}
		if err := dpr.dial(ps); err == nil {
			reachable = true
		}
	}
	if !reachable {
		dpr.Close()
		return nil, fmt.Errorf("reasoner: none of the %d workers are reachable (first: %s)",
			len(opts.Workers), opts.Workers[0])
	}
	return dpr, nil
}

// newSession builds the bookkeeping for one worker address (no dial).
func (dpr *DPR) newSession(addr string) *dprSession {
	return &dprSession{addr: addr, brk: newBreaker(dpr.opts.Breaker, nil, nil)}
}

// dial (re-)establishes one worker session with fresh dictionaries on both
// directions (the worker's session state is new, so the request dictionary
// replays from scratch and the first request ships full windows).
func (dpr *DPR) dial(ps *dprSession) error {
	ps.retire()
	hello := dpr.hello
	hello.Partitions = len(ps.parts)
	c, err := transport.Dial(ps.addr, &hello, transport.ClientOptions{
		DialTimeout: dpr.opts.DialTimeout,
		MaxFrame:    dpr.opts.MaxFrame,
		MaxInFlight: dpr.opts.MaxInFlight,
		Dialer:      dpr.opts.Dialer,
		TLS:         dpr.opts.TLS,
	})
	if err != nil {
		return err
	}
	ps.client = c
	ps.dec = intern.NewWireDecoder(dpr.tab)
	ps.reqEnc = intern.NewWireEncoder()
	ps.base = make([][]rdf.Triple, len(ps.parts))
	ps.baseValid = false
	ps.lastOK = time.Now()
	// A redialed session talks to a FRESH worker session with an empty
	// table: the previous table snapshot no longer describes anything.
	ps.workerRotations, ps.workerLiveAtoms = 0, 0
	return nil
}

// NumPartitions returns the number of partitions.
func (dpr *DPR) NumPartitions() int { return len(dpr.locals) }

// MaxInFlight returns the configured pipeline depth (≥ 1).
func (dpr *DPR) MaxInFlight() int {
	if dpr.opts.MaxInFlight < 1 {
		return 1
	}
	return dpr.opts.MaxInFlight
}

// InFlight returns the number of submitted windows not yet collected.
func (dpr *DPR) InFlight() int { return len(dpr.pending) }

// Close drains the pipeline, then tears down every worker session. Every
// submitted window is collected first, so in-flight remote legs finish
// deterministically (a dead session's legs fall back locally, bounded by
// the straggler timeout) instead of being abandoned mid-flight. The DPR
// must not be used afterwards.
func (dpr *DPR) Close() {
	for len(dpr.pending) > 0 {
		// Collect pops the window before reporting errors, so the drain
		// always terminates; a worker-side processing error has nowhere to
		// go from Close and the remaining windows still drain.
		if _, err := dpr.Collect(); err != nil {
			continue
		}
	}
	for _, ps := range dpr.sessions {
		ps.retire()
	}
	dpr.pending = nil
}

// Process partitions the window, reasons over the partitions on the
// workers (grounding from scratch), and combines the answers.
func (dpr *DPR) Process(window []rdf.Triple) (*Output, error) {
	return dpr.roundTrip(window, true)
}

// ProcessDelta is the incremental Process for overlapping windows: each
// worker session maintains its partitions' groundings across windows, fed
// by the per-partition deltas the coordinator derives against the
// previously shipped window (stream deltas cannot be routed through
// duplicating partitioners — same reasoning as PR.ProcessDelta). A nil
// delta degrades to the from-scratch Process.
func (dpr *DPR) ProcessDelta(window []rdf.Triple, d *Delta) (*Output, error) {
	if d == nil {
		return dpr.Process(window)
	}
	return dpr.roundTrip(window, false)
}

func (dpr *DPR) roundTrip(window []rdf.Triple, scratch bool) (*Output, error) {
	if len(dpr.pending) > 0 {
		return nil, fmt.Errorf("reasoner: %d window(s) in flight; Collect them before Process", len(dpr.pending))
	}
	dpr.submit(window, scratch)
	return dpr.Collect()
}

// Submit ships one window into the pipeline without waiting for its result
// (d nil forces from-scratch processing, mirroring ProcessDelta). It fails
// when MaxInFlight windows are already outstanding — Collect first.
func (dpr *DPR) Submit(window []rdf.Triple, d *Delta) error {
	if len(dpr.pending) >= dpr.MaxInFlight() {
		return fmt.Errorf("reasoner: pipeline full (%d windows in flight); Collect first", len(dpr.pending))
	}
	dpr.submit(window, d == nil)
	return nil
}

// submit partitions the window and ships one request per reachable worker
// session. Submission never fails the window: a session that cannot take
// the request simply leaves its leg unsubmitted, and Collect processes
// those partitions locally.
func (dpr *DPR) submit(window []rdf.Triple, scratch bool) {
	pw := &pendingWindow{start: time.Now(), scratch: scratch}
	t0 := time.Now()
	parts, skipped := dpr.part.Partition(window)
	pw.partitionLat = time.Since(t0)
	pw.parts = parts
	pw.skipped = skipped
	pw.legs = make([]pendingLeg, len(dpr.sessions))

	for si, ps := range dpr.sessions {
		if len(ps.parts) == 0 {
			continue
		}
		if !dpr.ensureConnected(ps) {
			continue
		}
		req := dpr.buildReq(ps, parts, scratch)
		if err := ps.client.Submit(req, dpr.opts.StragglerTimeout); err != nil {
			ps.retire()
			ps.brk.failure()
			continue
		}
		// The shipped sub-windows become the delta bases of the next
		// request on this session (the partitioner returns fresh slices,
		// safe to retain).
		for j, gi := range ps.parts {
			ps.base[j] = parts[gi]
		}
		ps.baseValid = true
		pw.legs[si] = pendingLeg{submitted: true, client: ps.client}
		dpr.rounds++
		dpr.inFlightSum += int64(ps.client.InFlight())
	}
	dpr.pending = append(dpr.pending, pw)
}

// ensureConnected returns true when the session holds a usable client:
// live clients are heartbeat-probed when they have sat idle past the
// interval, and dead ones are redialed under the session's circuit breaker
// (while the circuit is open the session is skipped — immediate local
// fallback instead of a dial timeout per window).
func (dpr *DPR) ensureConnected(ps *dprSession) bool {
	if ps.client != nil && !ps.client.Broken() {
		if !dpr.heartbeatDue(ps) {
			return true
		}
		dpr.heartbeats++
		if err := ps.client.Ping(dpr.heartbeatTimeout()); err == nil {
			ps.lastOK = time.Now()
			ps.brk.success()
			return true
		}
		// The probe found the worker dead between windows — retire now and
		// try one redial below, under the breaker like any other failure.
		ps.retire()
		ps.brk.failure()
	}
	if !ps.brk.allow() {
		return false
	}
	if err := dpr.dial(ps); err != nil {
		ps.brk.failure()
		return false
	}
	ps.brk.success()
	ps.redials++
	return true
}

// heartbeatDue reports whether a live session should be probed before the
// next window is risked on it: only when idle-probing is enabled, the
// session has no windows in flight (a ping would consume an in-flight
// response), and it has been idle past the interval.
func (dpr *DPR) heartbeatDue(ps *dprSession) bool {
	hi := dpr.opts.HeartbeatInterval
	if hi < 0 {
		return false
	}
	if hi == 0 {
		hi = 2 * time.Second
	}
	return ps.client.InFlight() == 0 && time.Since(ps.lastOK) >= hi
}

// heartbeatTimeout bounds one probe round trip.
func (dpr *DPR) heartbeatTimeout() time.Duration {
	if dpr.opts.HeartbeatTimeout > 0 {
		return dpr.opts.HeartbeatTimeout
	}
	return dpr.opts.StragglerTimeout / 4
}

// buildReq encodes one session's request: per hosted partition either the
// delta against the previously shipped sub-window or — on the scratch
// path, a fresh session, or when the delta would not be smaller — the full
// sub-window, all triples dictionary-coded through the session's request
// encoder.
func (dpr *DPR) buildReq(ps *dprSession, parts [][]rdf.Triple, scratch bool) *transport.WindowReq {
	ps.reqEnc.BeginRaw()
	req := &transport.WindowReq{Scratch: scratch, Parts: make([]transport.PartReq, len(ps.parts))}
	for j, gi := range ps.parts {
		cur := parts[gi]
		pr := &req.Parts[j]
		pr.WindowLen = len(cur)
		if scratch || !ps.baseValid {
			pr.Full = true
			pr.Added = encodeTriples(ps.reqEnc, cur)
			dpr.fullParts++
			continue
		}
		added, retracted := diffWindows(ps.base[j], cur, &dpr.diffBuf)
		if len(added)+len(retracted) >= len(cur) {
			pr.Full = true
			pr.Added = encodeTriples(ps.reqEnc, cur)
			dpr.fullParts++
			continue
		}
		pr.Added = encodeTriples(ps.reqEnc, added)
		pr.Retracted = encodeTriples(ps.reqEnc, retracted)
		dpr.deltaParts++
	}
	req.Dict = ps.reqEnc.Flush()
	return req
}

// encodeTriples wire-codes triples as three dictionary symbol indexes each.
func encodeTriples(enc *intern.WireEncoder, ts []rdf.Triple) []uint64 {
	if len(ts) == 0 {
		return nil
	}
	out := make([]uint64, 0, 3*len(ts))
	for _, t := range ts {
		out = append(out, uint64(enc.RawSym(t.S)), uint64(enc.RawSym(t.P)), uint64(enc.RawSym(t.O)))
	}
	return out
}

// diffWindows computes the multiset difference between the previously
// shipped sub-window and the current one: added = cur − base,
// retracted = base − cur. The scratch map is reused across calls.
func diffWindows(base, cur []rdf.Triple, scratch *map[rdf.Triple]int) (added, retracted []rdf.Triple) {
	counts := *scratch
	if counts == nil {
		counts = make(map[rdf.Triple]int)
		*scratch = counts
	}
	clear(counts)
	for _, t := range base {
		counts[t]++
	}
	for _, t := range cur {
		if counts[t] > 0 {
			counts[t]--
		} else {
			added = append(added, t)
		}
	}
	// What remains of base was not matched by cur: retract each leftover
	// occurrence (order is irrelevant — the worker applies a multiset).
	for t, c := range counts {
		for ; c > 0; c-- {
			retracted = append(retracted, t)
		}
	}
	return added, retracted
}

// Collect finishes the oldest in-flight window: await the worker responses
// (falling back locally for sessions that died mid-flight), combine across
// workers, rotate under the budget. Outputs surface strictly in submission
// order.
func (dpr *DPR) Collect() (*Output, error) {
	if len(dpr.pending) == 0 {
		return nil, fmt.Errorf("reasoner: no window in flight")
	}
	pw := dpr.pending[0]
	dpr.pending = dpr.pending[1:]
	if dpr.budget > 0 {
		// Decoding and local fallback intern into the coordinator table
		// at collect time, so the epoch opens here.
		dpr.tab.AdvanceEpoch()
	}
	out := &Output{Skipped: pw.skipped}
	out.Latency.Partition = pw.partitionLat
	for _, p := range pw.parts {
		out.PartitionSizes = append(out.PartitionSizes, len(p))
		out.RoutedItems += len(p)
	}

	// Per-partition load rows for this window: every leg fills the rows of
	// its own (disjoint) partitions, so the slice needs no locking.
	loads := make([]PartitionLoad, len(dpr.locals))
	results := make([]*Output, len(dpr.sessions))
	errs := make([]error, len(dpr.sessions))
	var wg sync.WaitGroup
	for si := range dpr.sessions {
		if len(dpr.sessions[si].parts) == 0 {
			continue
		}
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			results[si], errs[si] = dpr.collectLeg(dpr.sessions[si], &pw.legs[si], pw, loads)
		}(si)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	dpr.windows++
	dpr.lastLoads = loads

	// Drop the legs of partition-less sessions (idle workers contribute
	// nothing to the window).
	legs := results[:0]
	for _, res := range results {
		if res != nil {
			legs = append(legs, res)
		}
	}
	results = legs

	out.Incremental = len(results) > 0
	// The aggregate is on the fast path only when every leg was.
	out.SolveStats.FastPath = len(results) > 0
	var maxTotal time.Duration
	for _, res := range results {
		if !res.Incremental {
			out.Incremental = false
		}
		if !res.SolveStats.FastPath {
			out.SolveStats.FastPath = false
		}
		if res.Latency.Total > maxTotal {
			maxTotal = res.Latency.Total
		}
		if res.Latency.Convert > out.Latency.Convert {
			out.Latency.Convert = res.Latency.Convert
		}
		if res.Latency.Ground > out.Latency.Ground {
			out.Latency.Ground = res.Latency.Ground
		}
		if res.Latency.Solve > out.Latency.Solve {
			out.Latency.Solve = res.Latency.Solve
		}
		out.GroundStats.Atoms += res.GroundStats.Atoms
		out.GroundStats.Rules += res.GroundStats.Rules
		out.GroundStats.CertainFacts += res.GroundStats.CertainFacts
		out.GroundStats.Iterations += res.GroundStats.Iterations
		out.SolveStats.Add(res.SolveStats)
	}

	// Combine across workers (each leg is already combined over its own
	// partitions — unions are associative, so the nesting is equivalent to
	// PR's flat combine).
	t0 := time.Now()
	perLeg := make([][]*solve.AnswerSet, len(results))
	for i, res := range results {
		perLeg[i] = res.Answers
	}
	out.Answers = Combine(perLeg, DefaultMaxCombinations)
	// Cross-worker combine only: each leg's own combine already lives in
	// its Latency.Total (the worker folds CombineNS into TotalNS, and the
	// fallback leg adds its combine to Total) — adding the max leg combine
	// here again would double-count it on the critical path.
	out.Latency.Combine = time.Since(t0)

	// Coordinated rotation of the coordinator's answer table, mirroring PR.
	t0 = time.Now()
	dpr.maybeRotate(out)
	rotate := time.Since(t0)

	out.Latency.Total = time.Since(pw.start)
	out.Latency.CriticalPath = out.Latency.Partition + maxTotal + out.Latency.Combine + rotate
	return out, nil
}

// collectLeg finishes one session's leg of a window: await and decode the
// remote response when the request went out on the still-live client, or
// reason over the leg's partitions locally. Either way it fills the leg's
// rows of the per-partition load slice — a partition's items and cp-ms are
// attributed exactly once per window, to whichever side actually served it.
func (dpr *DPR) collectLeg(ps *dprSession, leg *pendingLeg, pw *pendingWindow, loads []PartitionLoad) (*Output, error) {
	if leg.submitted && ps.client != nil && ps.client == leg.client && !ps.client.Broken() {
		out, err, usable := dpr.awaitRemote(ps, pw, loads)
		if usable {
			return out, err
		}
	}
	// Local fallback, partitions in parallel like the worker would run
	// them; answers are identical either way.
	ps.local += int64(len(ps.parts))
	outs := make([]*Output, len(ps.parts))
	errs := make([]error, len(ps.parts))
	var wg sync.WaitGroup
	for j, gi := range ps.parts {
		wg.Add(1)
		go func(j, gi int) {
			defer wg.Done()
			if pw.scratch {
				outs[j], errs[j] = dpr.locals[gi].Process(pw.parts[gi])
			} else {
				outs[j], errs[j] = dpr.locals[gi].ProcessAuto(pw.parts[gi])
			}
		}(j, gi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for j, gi := range ps.parts {
		loads[gi] = PartitionLoad{
			Partition: gi,
			Worker:    ps.addr,
			Items:     len(pw.parts[gi]),
			CP:        outs[j].Latency.Total,
		}
	}
	return dpr.combineLeg(outs), nil
}

// awaitRemote receives and decodes one session response. usable=false means
// the leg must fall back locally (transport failure, timeout, desync);
// usable=true with a non-nil error reports a worker-side processing error,
// terminal for the window exactly like a local partition error would be.
func (dpr *DPR) awaitRemote(ps *dprSession, pw *pendingWindow, loads []PartitionLoad) (*Output, error, bool) {
	start := time.Now()
	resp, err := ps.client.Await(dpr.opts.StragglerTimeout)
	if err != nil {
		if re, ok := err.(*transport.RemoteError); ok && !re.Desync {
			// The worker reasoner failed on this window (e.g. the grounder's
			// atom limit): surface it — the local engine would fail the same
			// way, and masking it behind a fallback would hide program bugs.
			// The transport itself answered in time, so the session stays
			// healthy for the breaker.
			ps.remote += int64(len(ps.parts))
			ps.lastOK = time.Now()
			ps.brk.success()
			return nil, fmt.Errorf("reasoner: worker %s: %s", ps.addr, re.Msg), true
		}
		ps.retire()
		ps.brk.failure()
		return nil, nil, false
	}
	if err := ps.dec.Apply(&resp.Dict); err != nil {
		// Dictionary desync: the session cannot be trusted any more. Drop it
		// and serve this window locally; the redial replays the dictionary.
		ps.retire()
		ps.brk.failure()
		return nil, nil, false
	}
	answers := make([]*solve.AnswerSet, len(resp.Answers))
	for j, ws := range resp.Answers {
		ids, err := ps.dec.DecodeSet(ws, nil)
		if err != nil {
			ps.retire()
			ps.brk.failure()
			return nil, nil, false
		}
		answers[j] = solve.FromIDs(dpr.tab, ids)
	}

	ps.remote += int64(len(ps.parts))
	ps.lastOK = time.Now()
	ps.brk.success()
	ps.workerRotations = int64(resp.Rotations)
	ps.workerLiveAtoms = int64(resp.LiveAtoms)
	for j, gi := range ps.parts {
		pl := PartitionLoad{
			Partition: gi,
			Worker:    ps.addr,
			Items:     len(pw.parts[gi]),
			Remote:    true,
		}
		if j < len(resp.PartTotalNS) {
			pl.CP = time.Duration(resp.PartTotalNS[j])
		}
		if j < len(resp.PartItems) {
			pl.Items = resp.PartItems[j]
		}
		loads[gi] = pl
	}
	out := &Output{
		Answers:     answers,
		Skipped:     resp.Skipped,
		Incremental: resp.Incremental,
		GroundStats: resp.GroundStats,
		SolveStats:  resp.SolveStats,
	}
	out.Latency.Convert = time.Duration(resp.ConvertNS)
	out.Latency.Ground = time.Duration(resp.GroundNS)
	out.Latency.Solve = time.Duration(resp.SolveNS)
	out.Latency.Combine = time.Duration(resp.CombineNS)
	// The leg's contribution to the critical path: the remote compute or
	// the wait for the (pipelined) response, whichever dominated — under
	// lockstep the wait is the full round trip, preserving the pre-
	// pipelining semantics.
	out.Latency.Total = max(time.Since(start), time.Duration(resp.TotalNS))
	return out, nil, true
}

// combineLeg aggregates a fallback leg's per-partition outputs the way a
// worker session would: latency maxima, work sums, fast-path ANDs, and one
// combined answer list.
func (dpr *DPR) combineLeg(outs []*Output) *Output {
	leg := &Output{Incremental: true}
	leg.SolveStats.FastPath = true
	for _, out := range outs {
		if !out.Incremental {
			leg.Incremental = false
		}
		if !out.SolveStats.FastPath {
			leg.SolveStats.FastPath = false
		}
		if out.Latency.Convert > leg.Latency.Convert {
			leg.Latency.Convert = out.Latency.Convert
		}
		if out.Latency.Ground > leg.Latency.Ground {
			leg.Latency.Ground = out.Latency.Ground
		}
		if out.Latency.Solve > leg.Latency.Solve {
			leg.Latency.Solve = out.Latency.Solve
		}
		if out.Latency.Total > leg.Latency.Total {
			leg.Latency.Total = out.Latency.Total
		}
		leg.GroundStats.Atoms += out.GroundStats.Atoms
		leg.GroundStats.Rules += out.GroundStats.Rules
		leg.GroundStats.CertainFacts += out.GroundStats.CertainFacts
		leg.GroundStats.Iterations += out.GroundStats.Iterations
		leg.SolveStats.Add(out.SolveStats)
		leg.Skipped += out.Skipped
	}
	t0 := time.Now()
	perPartition := make([][]*solve.AnswerSet, len(outs))
	for i, out := range outs {
		perPartition[i] = out.Answers
	}
	leg.Answers = Combine(perPartition, DefaultMaxCombinations)
	leg.Latency.Combine = time.Since(t0)
	leg.Latency.Total += leg.Latency.Combine
	return leg
}

// maybeRotate applies the coordinator-side budget to the answer table after
// a window, mirroring PR.maybeRotate. Live state: the local fallback
// reasoners' grounder state plus the window's answers; the per-session
// decoder caches are invalidated (their mirrored dictionaries re-intern on
// demand, nothing is re-shipped).
func (dpr *DPR) maybeRotate(out *Output) {
	if dpr.budget <= 0 {
		return
	}
	if dpr.tab.NumAtoms() > dpr.budget {
		_ = dpr.rotateWith(out.Answers)
	}
	materializeAnswers(out.Answers)
}

// Rotate compacts the coordinator's answer table immediately, regardless of
// budget — the manual hook, symmetric with R.Rotate/PR.Rotate. Call it
// between windows only (no windows in flight).
func (dpr *DPR) Rotate() error {
	dpr.tab.AdvanceEpoch()
	return dpr.rotateWith(nil)
}

func (dpr *DPR) rotateWith(answers []*solve.AnswerSet) error {
	live := dpr.liveBuf[:0]
	for _, r := range dpr.locals {
		live = r.appendLive(live)
	}
	live = appendAnswerIDs(live, answers, dpr.tab)
	rm, err := dpr.tab.Rotate(live)
	dpr.liveBuf = live[:0]
	if err != nil {
		return err
	}
	for _, r := range dpr.locals {
		r.applyRemap(rm)
	}
	for _, ps := range dpr.sessions {
		if ps.dec != nil {
			ps.dec.InvalidateLocal()
		}
	}
	return remapAnswers(answers, rm, dpr.tab)
}

// Stats returns the coordinator's memory metrics with the transport metrics
// attached (MemoryStats.Transport is non-nil only for distributed engines).
func (dpr *DPR) Stats() MemoryStats {
	ts := dpr.TransportStats()
	return MemoryStats{Budget: dpr.budget, Table: dpr.tab.Stats(), Transport: &ts}
}

// TransportStats aggregates the wire metrics across all worker sessions,
// sessions removed from the fleet included.
func (dpr *DPR) TransportStats() TransportStats {
	ts := TransportStats{
		Rounds:           dpr.rounds,
		Windows:          dpr.windows,
		FullPartWindows:  dpr.fullParts,
		DeltaPartWindows: dpr.deltaParts,
		InFlightSum:      dpr.inFlightSum,
		RemoteWindows:    dpr.removed.remote,
		LocalFallbacks:   dpr.removed.local,
		Redials:          dpr.removed.redials,
		BytesSent:        dpr.removed.sent,
		BytesReceived:    dpr.removed.recv,
		DictRefs:         dpr.removed.refs,
		DictShipped:      dpr.removed.shipped,
		ReqDictRefs:      dpr.removed.reqRefs,
		ReqDictShipped:   dpr.removed.reqShipped,
		Heartbeats:       dpr.heartbeats,
		CircuitOpens:     dpr.removed.opens,
		ChecksumFailures: dpr.removed.crcFails,
	}
	for _, ps := range dpr.sessions {
		ts.RemoteWindows += ps.remote
		ts.LocalFallbacks += ps.local
		ts.Redials += ps.redials
		ts.BytesSent += ps.accSent
		ts.BytesReceived += ps.accRecv
		ts.DictRefs += ps.accRefs
		ts.DictShipped += ps.accShipped
		ts.ReqDictRefs += ps.accReqRefs
		ts.ReqDictShipped += ps.accReqShipped
		ts.CircuitOpens += ps.brk.opens
		ts.ChecksumFailures += ps.accCrcFails
		if ps.client != nil {
			ts.BytesSent += ps.client.BytesSent()
			ts.BytesReceived += ps.client.BytesReceived()
			ts.ChecksumFailures += ps.client.ChecksumFailures()
		}
		if ps.dec != nil {
			ts.DictRefs += ps.dec.Refs()
			ts.DictShipped += ps.dec.Shipped()
		}
		if ps.reqEnc != nil {
			ts.ReqDictRefs += ps.reqEnc.Refs()
			ts.ReqDictShipped += ps.reqEnc.Shipped()
		}
		ts.WorkerRotations += ps.workerRotations
		ts.WorkerLiveAtoms += ps.workerLiveAtoms
	}
	return ts
}

// PartitionLoads returns the per-partition load rows of the most recently
// collected window (nil before the first Collect). Each Collect allocates a
// fresh slice, so a returned slice stays valid; callers must not modify it.
func (dpr *DPR) PartitionLoads() []PartitionLoad { return dpr.lastLoads }

// Workers lists the current worker addresses in session order.
func (dpr *DPR) Workers() []string {
	out := make([]string, len(dpr.sessions))
	for i, ps := range dpr.sessions {
		out[i] = ps.addr
	}
	return out
}

// AddWorker grows the fleet with one worker between windows (no windows may
// be in flight): the new session joins the assignment immediately via a
// balanced re-layout, and the sessions whose partitions move are retired so
// their next window redials, reships full sub-windows, and replays
// dictionaries — answers are never dropped, the join costs one full-window
// ship on the affected sessions.
func (dpr *DPR) AddWorker(addr string) error {
	if len(dpr.pending) > 0 {
		return fmt.Errorf("reasoner: %d window(s) in flight; Collect before AddWorker", len(dpr.pending))
	}
	for _, ps := range dpr.sessions {
		if ps.addr == addr {
			return fmt.Errorf("reasoner: worker %s already in the fleet", addr)
		}
	}
	dpr.sessions = append(dpr.sessions, dpr.newSession(addr))
	dpr.relayout()
	return nil
}

// RemoveWorker shrinks the fleet between windows: the worker's partitions
// are reassigned to the remaining sessions (full-window reship on the next
// window), its wire counters are folded into the DPR totals so
// TransportStats survive the departure, and its session is closed. The last
// worker cannot be removed.
func (dpr *DPR) RemoveWorker(addr string) error {
	if len(dpr.pending) > 0 {
		return fmt.Errorf("reasoner: %d window(s) in flight; Collect before RemoveWorker", len(dpr.pending))
	}
	if len(dpr.sessions) == 1 {
		return fmt.Errorf("reasoner: cannot remove the last worker")
	}
	idx := -1
	for i, ps := range dpr.sessions {
		if ps.addr == addr {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("reasoner: worker %s not in the fleet", addr)
	}
	ps := dpr.sessions[idx]
	ps.retire()
	dpr.removed.remote += ps.remote
	dpr.removed.local += ps.local
	dpr.removed.redials += ps.redials
	dpr.removed.sent += ps.accSent
	dpr.removed.recv += ps.accRecv
	dpr.removed.refs += ps.accRefs
	dpr.removed.shipped += ps.accShipped
	dpr.removed.reqRefs += ps.accReqRefs
	dpr.removed.reqShipped += ps.accReqShipped
	dpr.removed.crcFails += ps.accCrcFails
	dpr.removed.opens += ps.brk.opens
	dpr.sessions = append(dpr.sessions[:idx], dpr.sessions[idx+1:]...)
	dpr.relayout()
	return nil
}

// assignLPT packs n weighted partitions onto k bins, heaviest first onto
// the least loaded bin.
func assignLPT(weights []float64, k int) []int {
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })
	load := make([]float64, k)
	assign := make([]int, len(weights))
	for _, p := range order {
		best := 0
		for s := 1; s < k; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		assign[p] = best
		load[best] += weights[p]
	}
	return assign
}

// relayout reassigns partitions to the current sessions between windows
// by longest-processing-time greedy packing: partitions sorted by the last
// window's routed items (uniform before the first window), heaviest first,
// each onto the least loaded session; ties break on lower index. Sessions
// whose hosted-partition list changes are retired: the next window redials
// them with the new partition count, ships full sub-windows, and replays the
// request dictionary — the ordinary session machinery, no new wire
// protocol.
func (dpr *DPR) relayout() {
	weights := make([]float64, len(dpr.locals))
	for p := range weights {
		weights[p] = 1
	}
	for p, pl := range dpr.lastLoads {
		weights[p] = float64(pl.Items) + 1
	}
	newParts := make([][]int, len(dpr.sessions))
	for p, si := range assignLPT(weights, len(dpr.sessions)) {
		newParts[si] = append(newParts[si], p)
	}
	for si, ps := range dpr.sessions {
		if slices.Equal(ps.parts, newParts[si]) {
			continue
		}
		ps.retire()
		ps.parts = newParts[si]
		ps.base = nil
	}
}
