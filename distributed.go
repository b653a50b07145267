package streamrule

import (
	"context"
	"crypto/tls"
	"errors"
	"net"
	"time"

	"streamrule/internal/reasoner"
	"streamrule/internal/transport"
)

// TransportStats aggregates the wire metrics of a distributed engine:
// remote vs fallback windows, redials, bytes shipped, and the per-worker
// dictionary hit rate (see DistributedEngine).
type TransportStats = reasoner.TransportStats

// PartitionLoad is one partition's observed load in the most recently
// processed window: routed items, compute critical path, the worker
// serving it, and whether it was answered remotely.
type PartitionLoad = reasoner.PartitionLoad

// CircuitBreakerOptions tunes the per-worker-session circuit breaker of the
// distributed engine (see WithCircuitBreaker): consecutive-failure
// threshold, base/max quarantine delays, and the jitter fraction. The zero
// value uses the documented defaults (3 failures, 250ms base, 15s cap,
// ±20% jitter).
type CircuitBreakerOptions = reasoner.BreakerOptions

// DialFunc dials one worker connection (see WithDialer). It receives the
// worker address and the configured dial timeout and returns a connected
// net.Conn.
type DialFunc = transport.DialFunc

// WithStragglerTimeout bounds one remote round of the distributed engine
// (ship the partition, reason, receive answers). A worker that misses the
// deadline is treated as down for that window: the partition is processed
// locally and the session is re-established behind the scenes. Default 10s.
func WithStragglerTimeout(d time.Duration) Option {
	return func(o *options) { o.stragglerTimeout = d }
}

// WithMaxInFlight sets the distributed engine's pipeline depth: up to n
// windows may be submitted-but-unanswered per worker session, overlapping
// the shipping and partitioning of window n+1 with the remote grounding and
// solving of window n. Depth 1 (the default) is the classic request/
// response lockstep. Results always surface in window order, answers are
// identical at every depth; only latency differs. The Pipeline drives a
// deeper engine through Submit/Collect automatically. Sizing: 2 hides the
// coordinator's partition+ship time behind remote compute, which is all
// there is to win on a single stream; deeper only pays when wire latency
// exceeds per-window compute.
func WithMaxInFlight(n int) Option {
	return func(o *options) { o.maxInFlight = n }
}

// WithCircuitBreaker tunes the distributed engine's per-worker-session
// circuit breaker. After Threshold consecutive failures (dial errors,
// transport breaks, desyncs, stragglers, failed heartbeats) the session is
// quarantined: windows fall back locally without paying a dial or timeout,
// and redials resume after a capped, jittered exponential backoff probes
// the worker successfully. The zero value is the default behavior — the
// breaker is always on; this option only re-tunes it.
func WithCircuitBreaker(cb CircuitBreakerOptions) Option {
	return func(o *options) { o.breaker = cb }
}

// WithHeartbeat sets the distributed engine's idle-session health probing.
// A session idle for interval (no successful round, ping, or dial) is
// probed with a protocol-level ping before the next window ships; a probe
// that misses timeout retires the session immediately, so the window takes
// the fast redial-or-fallback path instead of burning a straggler timeout
// on a dead worker. interval 0 keeps the default (2s), negative disables
// probing; timeout 0 defaults to a quarter of the straggler timeout.
func WithHeartbeat(interval, timeout time.Duration) Option {
	return func(o *options) { o.heartbeat, o.heartbeatTimeout = interval, timeout }
}

// WithDialer overrides how the distributed engine reaches its workers (the
// default is plain TCP). This is the hook for custom networks and for
// fault-injection harnesses that wrap real connections.
func WithDialer(d DialFunc) Option {
	return func(o *options) { o.dialer = d }
}

// WithTransportTLS wraps every worker connection of the distributed engine
// in TLS with the given configuration (nil leaves the wire in plaintext).
// ServerName is derived from the worker address when unset. Pair it with a
// TLS-enabled worker (NewWorkerServerTLS / ServeWorkerTLS); mutual TLS
// works the usual way via Certificates and RootCAs.
func WithTransportTLS(cfg *tls.Config) Option {
	return func(o *options) { o.tlsConf = cfg }
}

// DistributedEngine is the sharded parallel reasoner DPR: the partitioning
// and combining handlers of ParallelEngine with the k reasoner copies
// running on remote workers (one session per worker, hosting the partitions
// assigned round-robin over the worker addresses). Requests ship as
// dictionary-coded deltas against each partition's previous sub-window;
// answer sets come back in a portable wire form, re-interned through a
// cached per-worker symbol dictionary. Both directions ship each symbol
// once per session, so steady-state windows carry only symbols the
// receiver has never seen. The partition layout is fixed at construction;
// only AddWorker and RemoveWorker move partitions between workers.
//
// Every partition keeps a local fallback reasoner: a worker that is down,
// straggling, or desynchronized costs latency for that window, never
// correctness. With WithMemoryBudget, workers bound their interning tables
// by rotation (each session owns a private table) and the coordinator
// applies the same budget to its answer table.
//
// A DistributedEngine must not process windows concurrently (same contract
// as Engine and ParallelEngine). Close it when done to release the worker
// sessions.
type DistributedEngine struct {
	dpr  *reasoner.DPR
	plan *Plan
}

// NewDistributedEngine builds a distributed engine for the program against
// the given worker addresses (host:port, see ServeWorker for the worker
// side). The dependency analysis runs at construction time, exactly as in
// NewParallelEngine, and the same partitioning option applies
// (WithRandomPartitioning). Construction fails when no worker is reachable.
func NewDistributedEngine(p *Program, workers []string, opts ...Option) (*DistributedEngine, error) {
	o := buildOptions(opts)
	part, plan, err := buildPartitioner(p, o)
	if err != nil {
		return nil, err
	}
	dpr, err := reasoner.NewDPR(p.config(o), part, reasoner.DPROptions{
		Workers:           workers,
		ProgramSource:     p.Source(),
		StragglerTimeout:  o.stragglerTimeout,
		MaxInFlight:       o.maxInFlight,
		Dialer:            o.dialer,
		TLS:               o.tlsConf,
		HeartbeatInterval: o.heartbeat,
		HeartbeatTimeout:  o.heartbeatTimeout,
		Breaker:           o.breaker,
	})
	if err != nil {
		return nil, err
	}
	return &DistributedEngine{dpr: dpr, plan: plan}, nil
}

// Plan returns the dependency partitioning plan, or nil when random
// partitioning is configured.
func (e *DistributedEngine) Plan() *Plan { return e.plan }

// Partitions returns the number of partitions. Partitions are not worker
// sessions: each worker holds one session, which may host several
// partitions.
func (e *DistributedEngine) Partitions() int { return e.dpr.NumPartitions() }

// Reason processes one window: partition, ship the sub-windows to the
// workers in parallel, combine the decoded answers.
func (e *DistributedEngine) Reason(window []Triple) (*Output, error) { return e.dpr.Process(window) }

// ReasonDelta is the incremental Reason for overlapping windows: each
// worker session maintains its partition's grounding across windows, so a
// steady-state sliding window costs the workers a delta update instead of
// a re-grounding — and the coordinator only the changed answers.
func (e *DistributedEngine) ReasonDelta(window []Triple, d *Delta) (*Output, error) {
	return e.dpr.ProcessDelta(window, d)
}

// Submit ships one window into the engine's pipeline without waiting for
// its result; Collect returns results strictly in submission order. A nil
// delta forces from-scratch processing (mirroring ReasonDelta). Submit
// fails when PipelineDepth windows are already in flight.
func (e *DistributedEngine) Submit(window []Triple, d *Delta) error {
	return e.dpr.Submit(window, d)
}

// Collect blocks for the oldest in-flight window's result.
func (e *DistributedEngine) Collect() (*Output, error) { return e.dpr.Collect() }

// InFlight returns the number of submitted windows not yet collected.
func (e *DistributedEngine) InFlight() int { return e.dpr.InFlight() }

// PipelineDepth returns the configured WithMaxInFlight depth (≥ 1).
func (e *DistributedEngine) PipelineDepth() int { return e.dpr.MaxInFlight() }

// Stats returns the engine's memory metrics; MemoryStats.Transport
// additionally carries the wire metrics (bytes shipped, dictionary hit
// rate, fallbacks).
func (e *DistributedEngine) Stats() MemoryStats { return e.dpr.Stats() }

// TransportStats returns the engine's wire metrics alone.
func (e *DistributedEngine) TransportStats() TransportStats { return e.dpr.TransportStats() }

// PartitionLoads returns the per-partition load rows of the most recently
// processed window (nil before the first). Every window gets a fresh slice;
// callers must not modify it.
func (e *DistributedEngine) PartitionLoads() []PartitionLoad { return e.dpr.PartitionLoads() }

// Workers lists the current worker addresses.
func (e *DistributedEngine) Workers() []string { return e.dpr.Workers() }

// AddWorker grows the worker fleet between windows (no windows may be in
// flight): partitions are re-balanced onto the new worker immediately, the
// affected sessions reship full sub-windows on the next window, and no
// answers are dropped.
func (e *DistributedEngine) AddWorker(addr string) error { return e.dpr.AddWorker(addr) }

// RemoveWorker shrinks the worker fleet between windows: the departing
// worker's partitions move to the remaining workers and its wire counters
// are folded into TransportStats. The last worker cannot be removed.
func (e *DistributedEngine) RemoveWorker(addr string) error { return e.dpr.RemoveWorker(addr) }

// Close releases every worker session. The engine must not be used
// afterwards.
func (e *DistributedEngine) Close() { e.dpr.Close() }

// WorkerServer hosts reasoning sessions for distributed coordinators: each
// incoming connection carries a program in its handshake and gets a full
// private reasoner (incremental, and memory-bounded when the coordinator
// configured a budget). One worker process can serve many coordinators and
// programs at once.
type WorkerServer struct {
	srv *transport.Server
}

// NewWorkerServer listens on addr (host:port; port 0 picks a free port).
// Call Serve to start accepting sessions.
func NewWorkerServer(addr string) (*WorkerServer, error) {
	return NewWorkerServerTLS(addr, nil)
}

// NewWorkerServerTLS is NewWorkerServer with every session wrapped in TLS
// using the given configuration (nil = plaintext, identical to
// NewWorkerServer). Set ClientCAs and ClientAuth for mutual TLS.
func NewWorkerServerTLS(addr string, cfg *tls.Config) (*WorkerServer, error) {
	srv, err := transport.NewServer(addr, reasoner.NewWorkerHandler(), transport.ServerOptions{TLS: cfg})
	if err != nil {
		return nil, err
	}
	return &WorkerServer{srv: srv}, nil
}

// Addr returns the bound listen address (useful with port 0).
func (w *WorkerServer) Addr() string { return w.srv.Addr() }

// Serve accepts coordinator sessions until Close. It always returns a
// non-nil error; after Close the error is net.ErrClosed.
func (w *WorkerServer) Serve() error { return w.srv.Serve() }

// Close stops the server and tears down every live session.
func (w *WorkerServer) Close() error { return w.srv.Close() }

// Shutdown stops accepting sessions and drains the live ones: a session in
// the middle of a window finishes and delivers that window's response, idle
// sessions close immediately. Sessions still busy when the grace period
// expires are force-closed. It returns nil when every session drained in
// time.
func (w *WorkerServer) Shutdown(grace time.Duration) error { return w.srv.Shutdown(grace) }

// ServeWorker runs a worker on addr until the context is cancelled — the
// one-call worker side of the distributed engine (cmd/streamrule -worker
// wraps exactly this).
func ServeWorker(ctx context.Context, addr string) error {
	return ServeWorkerTLS(ctx, addr, nil)
}

// ServeWorkerTLS is ServeWorker with the sessions wrapped in TLS (nil cfg =
// plaintext). On context cancellation the worker drains in-flight windows
// for up to five seconds before force-closing.
func ServeWorkerTLS(ctx context.Context, addr string, cfg *tls.Config) error {
	w, err := NewWorkerServerTLS(addr, cfg)
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- w.Serve() }()
	select {
	case <-ctx.Done():
		w.Shutdown(5 * time.Second)
		<-done
		return ctx.Err()
	case err := <-done:
		if errors.Is(err, net.ErrClosed) {
			return nil
		}
		return err
	}
}
