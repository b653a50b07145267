package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"streamrule/internal/asp/intern"
	"streamrule/internal/asp/parser"
	"streamrule/internal/core"
	"streamrule/internal/dfp"
	"streamrule/internal/rdf"
	"streamrule/internal/reasoner"
	"streamrule/internal/stream"
	"streamrule/internal/transport"
)

// Overflow selects what Push does when a tenant's ingress queue is full.
type Overflow int

const (
	// ShedOldest drops the oldest queued window to admit the new one. Every
	// drop is counted in TenantStats.Shed, and the window that follows the
	// shed one is re-seeded from scratch: its delta was computed relative to
	// the shed window, so replaying it against the engine's actual state
	// would silently corrupt the tenant's incremental grounding.
	ShedOldest Overflow = iota
	// Block makes Push wait for queue room — backpressure to the producer.
	Block
)

// Scheduling and queue defaults, overridable via Config.
const (
	DefaultWorkers    = 4
	DefaultQuantum    = 256
	DefaultQueueDepth = 8
)

// Config sizes the shared fleet.
type Config struct {
	// Workers is the number of fleet executor goroutines shared by all
	// tenants (default DefaultWorkers).
	Workers int
	// Quantum is the deficit round-robin credit, in window items, each
	// backlogged tenant earns per scheduling pass (default DefaultQuantum).
	// A tenant dispatches when its accumulated credit covers its head
	// window's item count, so item-heavy tenants pay proportionally more
	// passes per window.
	Quantum int
	// QueueDepth bounds each tenant's ingress queue in windows (default
	// DefaultQueueDepth) unless the tenant overrides it.
	QueueDepth int
}

// TenantConfig describes one pipeline to multiplex onto the server.
type TenantConfig struct {
	// Program is the tenant's ASP program source. Required.
	Program string
	// Inpre names the input predicates. Required.
	Inpre []string
	// Arities overrides arity inference for input predicates (needed when a
	// declared input predicate does not occur in the program).
	Arities map[string]int
	// OutputPreds restricts answers to these predicates (nil = all derived).
	OutputPreds []string
	// WindowSize is the tuple-based window size. Required.
	WindowSize int
	// WindowStep < WindowSize makes the window sliding.
	WindowStep int
	// MemoryBudget bounds the tenant's private intern table exactly as in
	// reasoner.Config. Zero = unbounded, but the table is still private to
	// the tenant.
	MemoryBudget int
	// QueueDepth overrides the server's per-tenant ingress bound (windows).
	QueueDepth int
	// Overflow selects shed-oldest (default) or blocking backpressure.
	Overflow Overflow
	// Workers, when set, backs this tenant with remote reasoning over these
	// worker addresses (a DPR engine) instead of a local engine. Multiple
	// tenants may share the same addresses.
	Workers []string
	// StragglerTimeout bounds each remote window leg before the tenant
	// falls back locally (0 = the DPR default). Distributed tenants only.
	StragglerTimeout time.Duration
	// HeartbeatInterval sets the idle-probe cadence on the tenant's worker
	// sessions (0 = the DPR default, negative disables). Distributed
	// tenants only.
	HeartbeatInterval time.Duration
	// Dialer overrides how the tenant's DPR reaches its workers (nil =
	// plain TCP). Chaos injectors and custom networks hook in here.
	// Distributed tenants only.
	Dialer transport.DialFunc
	// Breaker tunes the per-worker-session circuit breaker (zero value =
	// the DPR defaults). Distributed tenants only.
	Breaker reasoner.BreakerOptions
	// Handle receives every completed window in order, called from a fleet
	// goroutine (never concurrently for one tenant). Optional.
	Handle func(window []rdf.Triple, out *reasoner.Output)
}

// Sentinel errors returned by tenant operations.
var (
	ErrClosed          = errors.New("serve: server closed")
	ErrUnknownTenant   = errors.New("serve: unknown tenant")
	ErrDuplicateTenant = errors.New("serve: tenant id already registered")
	ErrRemoved         = errors.New("serve: tenant removed")
)

// engine is the per-tenant reasoning surface, satisfied by *reasoner.R and
// *reasoner.DPR.
type engine interface {
	ProcessDelta(window []rdf.Triple, d *reasoner.Delta) (*reasoner.Output, error)
	Stats() reasoner.MemoryStats
}

// queuedWindow is one ready window waiting for a fleet worker.
type queuedWindow struct {
	window   []rdf.Triple
	delta    *reasoner.Delta
	enqueued time.Time
}

// tenant is the server-side state of one pipeline.
type tenant struct {
	id       string
	eng      engine
	w        stream.Windower
	dw       stream.DeltaWindower // w when it maintains deltas, else nil
	handle   func([]rdf.Triple, *reasoner.Output)
	overflow Overflow
	depth    int

	queue   []queuedWindow
	busy    bool // a fleet worker is processing (or quiescing) this tenant
	deficit int  // DRR credit in window items
	reseed  bool // next dispatched window must drop its delta
	removed bool

	stats     TenantStats
	latencies latencyRing
}

// Server multiplexes tenants over a shared fleet of executor goroutines.
// All methods are safe for concurrent use.
type Server struct {
	quantum int
	depth   int

	mu      sync.Mutex
	cond    *sync.Cond // work available, queue room, busy/target changes
	tenants map[string]*tenant
	ring    []*tenant // DRR visit order
	rrPos   int
	target  int // desired fleet size
	live    int // running fleet goroutines
	closed  bool
	wg      sync.WaitGroup
}

// NewServer starts the fleet and returns an empty server.
func NewServer(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = DefaultQuantum
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	s := &Server{
		quantum: cfg.Quantum,
		depth:   cfg.QueueDepth,
		tenants: map[string]*tenant{},
		target:  cfg.Workers,
	}
	s.cond = sync.NewCond(&s.mu)
	s.mu.Lock()
	for s.live < s.target {
		s.spawnLocked()
	}
	s.mu.Unlock()
	return s
}

func (s *Server) spawnLocked() {
	s.live++
	s.wg.Add(1)
	go s.workerLoop()
}

// AddTenant admits a new pipeline. The tenant's engine always owns a private
// intern table: budgeted tenants get the rotating table the budget implies,
// and unbudgeted ones get an explicit fresh table — no tenant interns into
// the process-wide default.
func (s *Server) AddTenant(id string, tc TenantConfig) error {
	if tc.WindowSize <= 0 {
		return fmt.Errorf("serve: tenant %s: WindowSize required", id)
	}
	eng, err := buildEngine(tc)
	if err != nil {
		return fmt.Errorf("serve: tenant %s: %w", id, err)
	}
	var w stream.Windower
	if tc.WindowStep > 0 && tc.WindowStep < tc.WindowSize {
		w = &stream.SlidingCountWindow{Size: tc.WindowSize, Step: tc.WindowStep}
	} else {
		w = &stream.CountWindow{Size: tc.WindowSize}
	}
	dw, _ := w.(stream.DeltaWindower)
	depth := tc.QueueDepth
	t := &tenant{
		id: id, eng: eng, w: w, dw: dw,
		handle: tc.Handle, overflow: tc.Overflow, depth: depth,
	}
	t.stats.ID = id

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		closeEngine(eng)
		return ErrClosed
	}
	if _, dup := s.tenants[id]; dup {
		closeEngine(eng)
		return ErrDuplicateTenant
	}
	if t.depth <= 0 {
		t.depth = s.depth
	}
	s.tenants[id] = t
	s.ring = append(s.ring, t)
	return nil
}

func buildEngine(tc TenantConfig) (engine, error) {
	prog, err := parser.Parse(tc.Program)
	if err != nil {
		return nil, err
	}
	cfg := reasoner.Config{
		Program:      prog,
		Inpre:        tc.Inpre,
		Arities:      dfp.Arities(tc.Arities),
		OutputPreds:  tc.OutputPreds,
		MemoryBudget: tc.MemoryBudget,
	}
	if cfg.MemoryBudget == 0 {
		cfg.GroundOpts.Intern = intern.NewTable()
	}
	if len(tc.Workers) == 0 {
		return reasoner.NewR(cfg)
	}
	analysis, err := core.Analyze(prog, tc.Inpre, 1.0)
	if err != nil {
		return nil, err
	}
	return reasoner.NewDPR(cfg, reasoner.NewPlanPartitioner(analysis.Plan), reasoner.DPROptions{
		Workers:           tc.Workers,
		ProgramSource:     tc.Program,
		StragglerTimeout:  tc.StragglerTimeout,
		HeartbeatInterval: tc.HeartbeatInterval,
		Dialer:            tc.Dialer,
		Breaker:           tc.Breaker,
	})
}

func closeEngine(e engine) {
	if c, ok := e.(interface{ Close() }); ok {
		c.Close()
	}
}

// Push feeds one triple into the tenant's window operator, enqueueing any
// completed window for the fleet. With Overflow == Block it blocks while the
// tenant's queue is full; with ShedOldest it drops the oldest queued window
// instead (counted in TenantStats.Shed).
func (s *Server) Push(id string, tr rdf.Triple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := s.tenantLocked(id)
	if err != nil {
		return err
	}
	item := stream.Item{Triple: tr}
	var wd *stream.WindowDelta
	if t.dw != nil {
		wd = t.dw.AddDelta(item)
	} else if win := t.w.Add(item); win != nil {
		wd = &stream.WindowDelta{Window: win, Added: win}
	}
	if wd == nil {
		return nil
	}
	return s.enqueueLocked(t, wd)
}

// enqueueLocked admits one emitted window to the tenant's queue, applying
// the overflow policy.
func (s *Server) enqueueLocked(t *tenant, wd *stream.WindowDelta) error {
	for len(t.queue) >= t.depth {
		if t.overflow == ShedOldest {
			t.queue = t.queue[1:]
			t.stats.Shed++
			// The new head (or, for an emptied queue, the incoming window)
			// carries a delta relative to the shed window: invalidate it.
			if len(t.queue) > 0 {
				t.queue[0].delta = nil
			} else {
				t.reseed = true
			}
			continue
		}
		t.stats.Blocked++
		s.cond.Wait()
		if t.removed {
			return ErrRemoved
		}
		if s.closed {
			return ErrClosed
		}
	}
	var d *reasoner.Delta
	if wd.Incremental {
		d = &reasoner.Delta{Added: wd.Added, Retracted: wd.Retracted}
	}
	t.queue = append(t.queue, queuedWindow{window: wd.Window, delta: d, enqueued: time.Now()})
	s.cond.Broadcast()
	return nil
}

func (s *Server) tenantLocked(id string) (*tenant, error) {
	if s.closed {
		return nil, ErrClosed
	}
	t, ok := s.tenants[id]
	if !ok {
		return nil, ErrUnknownTenant
	}
	return t, nil
}

// Drain flushes the tenant's uncovered window tail (mirroring Pipeline.Run,
// so a drained tenant has handled exactly the windows a solo pipeline run
// would) and blocks until its queue is empty and no window is in flight.
// The tenant stays registered; a subsequent Push starts a fresh window.
func (s *Server) Drain(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := s.tenantLocked(id)
	if err != nil {
		return err
	}
	if rest := t.w.Flush(); len(rest) > 0 {
		// The tail bypasses the overflow policy: draining must not drop it.
		t.queue = append(t.queue, queuedWindow{window: rest, enqueued: time.Now()})
		// Whatever the windower emits after a flush is not delta-consistent
		// with what preceded it.
		t.reseed = true
		s.cond.Broadcast()
	}
	for (len(t.queue) > 0 || t.busy) && !t.removed && !s.closed {
		s.cond.Wait()
	}
	if t.removed {
		return ErrRemoved
	}
	if s.closed {
		return ErrClosed
	}
	return nil
}

// Sync blocks until the tenant's queue is empty and no window is in flight,
// without flushing the windower tail. Unlike Drain, a Push after Sync
// continues the sliding window exactly where it left off, so mid-stream
// checkpoints (stats snapshots, phased tests) do not perturb windowing.
func (s *Server) Sync(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := s.tenantLocked(id)
	if err != nil {
		return err
	}
	for (len(t.queue) > 0 || t.busy) && !t.removed && !s.closed {
		s.cond.Wait()
	}
	if t.removed {
		return ErrRemoved
	}
	if s.closed {
		return ErrClosed
	}
	return nil
}

// DrainAll drains every registered tenant.
func (s *Server) DrainAll() error {
	s.mu.Lock()
	ids := make([]string, 0, len(s.tenants))
	for id := range s.tenants {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	for _, id := range ids {
		if err := s.Drain(id); err != nil && !errors.Is(err, ErrRemoved) {
			return err
		}
	}
	return nil
}

// RemoveTenant evicts a tenant: its in-flight window (if any) completes and
// is delivered, queued windows are discarded (counted in TenantStats.Shed),
// and its engine is released. Neighbors are untouched.
func (s *Server) RemoveTenant(id string) error {
	s.mu.Lock()
	t, err := s.tenantLocked(id)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	t.removed = true
	t.stats.Shed += uint64(len(t.queue))
	t.queue = nil
	for t.busy {
		s.cond.Wait()
	}
	delete(s.tenants, id)
	for i, rt := range s.ring {
		if rt == t {
			s.ring = append(s.ring[:i], s.ring[i+1:]...)
			if s.rrPos > i {
				s.rrPos--
			}
			break
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	closeEngine(t.eng)
	return nil
}

// Resize grows or shrinks the fleet to n executor goroutines. Shrinking
// takes effect as workers finish their current window.
func (s *Server) Resize(n int) {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	s.target = n
	for s.live < s.target {
		s.spawnLocked()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Workers returns the current fleet target.
func (s *Server) Workers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.target
}

// AddWorker joins a remote worker to every tenant backed by remote workers,
// quiescing each tenant (waiting out its in-flight window) before the
// elastic join. Tenants with local engines are unaffected.
func (s *Server) AddWorker(addr string) error {
	return s.eachDPR(func(d *reasoner.DPR) error { return d.AddWorker(addr) })
}

// RemoveWorker removes a remote worker from every remote-backed tenant,
// with the same quiescing. A tenant whose last worker would be removed
// reports an error; the sweep continues and the first error is returned.
func (s *Server) RemoveWorker(addr string) error {
	return s.eachDPR(func(d *reasoner.DPR) error { return d.RemoveWorker(addr) })
}

// TenantTransportStats returns the wire metrics of a remote-backed
// tenant's engine (ok=false for unknown or locally-backed tenants). The
// tenant is quiesced exactly like AddWorker — no window of it is in flight
// while the counters are read — so the snapshot is consistent.
func (s *Server) TenantTransportStats(id string) (reasoner.TransportStats, bool) {
	s.mu.Lock()
	t, ok := s.tenants[id]
	if !ok {
		s.mu.Unlock()
		return reasoner.TransportStats{}, false
	}
	d, ok := t.eng.(*reasoner.DPR)
	if !ok {
		s.mu.Unlock()
		return reasoner.TransportStats{}, false
	}
	for t.busy && !t.removed && !s.closed {
		s.cond.Wait()
	}
	if t.removed {
		s.mu.Unlock()
		return reasoner.TransportStats{}, false
	}
	t.busy = true // keep the scheduler off this tenant during the read
	s.mu.Unlock()
	ts := d.TransportStats()
	s.mu.Lock()
	t.busy = false
	s.cond.Broadcast()
	s.mu.Unlock()
	return ts, true
}

func (s *Server) eachDPR(op func(*reasoner.DPR) error) error {
	s.mu.Lock()
	tenants := make([]*tenant, len(s.ring))
	copy(tenants, s.ring)
	var firstErr error
	for _, t := range tenants {
		d, ok := t.eng.(*reasoner.DPR)
		if !ok {
			continue
		}
		for t.busy && !t.removed && !s.closed {
			s.cond.Wait()
		}
		if t.removed || s.closed {
			continue
		}
		t.busy = true // keep the scheduler off this tenant during the op
		s.mu.Unlock()
		err := op(d)
		s.mu.Lock()
		t.busy = false
		s.cond.Broadcast()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.mu.Unlock()
	return firstErr
}

// Close stops the fleet: in-flight windows complete, queued windows are
// discarded, and every tenant engine is released. The server must not be
// used afterwards.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	engines := make([]engine, 0, len(s.tenants))
	for _, t := range s.tenants {
		engines = append(engines, t.eng)
	}
	s.tenants = map[string]*tenant{}
	s.ring = nil
	s.mu.Unlock()
	for _, e := range engines {
		closeEngine(e)
	}
}

// workerLoop is one fleet executor: pick a ready window under DRR, process
// it outside the lock, deliver, repeat.
func (s *Server) workerLoop() {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed || s.live > s.target {
			s.live--
			s.cond.Broadcast()
			return
		}
		t, qw, ok := s.pickLocked()
		if !ok {
			s.cond.Wait()
			continue
		}
		t.busy = true
		s.cond.Broadcast() // queue room may have opened for a blocked Push
		s.mu.Unlock()

		out, err := t.eng.ProcessDelta(qw.window, qw.delta)
		if err == nil && t.handle != nil {
			t.handle(qw.window, out)
		}
		lat := time.Since(qw.enqueued)

		s.mu.Lock()
		t.busy = false
		t.note(qw, out, err, lat)
		s.cond.Broadcast()
	}
}

// pickLocked runs the deficit round-robin: each backlogged, idle tenant
// earns quantum items of credit per pass and dispatches its head window once
// the credit covers the window's item count. Returns false when no tenant
// has a dispatchable window.
func (s *Server) pickLocked() (*tenant, queuedWindow, bool) {
	n := len(s.ring)
	ready := false
	for _, t := range s.ring {
		if !t.busy && len(t.queue) > 0 {
			ready = true
			break
		}
	}
	if !ready {
		return nil, queuedWindow{}, false
	}
	// Some tenant is dispatchable and earns quantum every pass, so the loop
	// terminates in at most ceil(maxWindowItems/quantum) passes.
	for {
		for i := 0; i < n; i++ {
			t := s.ring[(s.rrPos+i)%n]
			if len(t.queue) == 0 {
				t.deficit = 0 // no banking credit while idle
				continue
			}
			if t.busy {
				continue
			}
			cost := len(t.queue[0].window)
			if cost == 0 {
				cost = 1
			}
			t.deficit += s.quantum
			if t.deficit < cost {
				continue
			}
			t.deficit -= cost
			qw := t.queue[0]
			t.queue = t.queue[1:]
			if len(t.queue) == 0 {
				t.deficit = 0
			}
			if t.reseed {
				qw.delta = nil
				t.reseed = false
			}
			s.rrPos = (s.rrPos + i + 1) % n
			return t, qw, true
		}
	}
}

// note records one processed window's outcome. Called with the server lock
// held and the tenant idle, so reading the engine's table stats is safe.
func (t *tenant) note(qw queuedWindow, out *reasoner.Output, err error, lat time.Duration) {
	t.stats.Windows++
	if err != nil {
		t.stats.Errors++
		// The engine's incremental state is suspect; the next window
		// re-seeds from scratch.
		t.reseed = true
		return
	}
	if qw.delta != nil && !out.Incremental {
		t.stats.Fallbacks++
	}
	t.stats.LiveAtoms = t.eng.Stats().Table.Atoms
	t.latencies.add(lat)
}
