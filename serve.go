package streamrule

import (
	"streamrule/internal/serve"
)

// Overflow selects what Server.Push does when a tenant's bounded ingress
// queue is full: ShedOldest or BlockIngress.
type Overflow = serve.Overflow

// Overflow policies for TenantConfig.Overflow.
const (
	// ShedOldest drops the oldest queued window to admit the new one
	// (counted per tenant; the surviving successor window is re-seeded from
	// scratch so the tenant's incremental state stays correct).
	ShedOldest Overflow = serve.ShedOldest
	// BlockIngress makes Push wait for queue room — backpressure to the
	// producer.
	BlockIngress Overflow = serve.Block
)

// ServerConfig sizes the shared fleet of a Server: executor goroutines,
// the deficit round-robin quantum, and the default per-tenant queue depth.
type ServerConfig = serve.Config

// TenantConfig describes one pipeline multiplexed onto a Server: program,
// input predicates, window shape, memory budget, overflow policy, optional
// remote worker addresses, and the per-window Handle callback.
type TenantConfig = serve.TenantConfig

// ServerStats aggregates a Server's serving metrics: fleet size, per-tenant
// rows (windows, latency percentiles, fallbacks, live atoms, shed/blocked
// counts), and fleet totals.
type ServerStats = serve.ServerStats

// TenantStats is one tenant's serving metrics row within ServerStats.
type TenantStats = serve.TenantStats

// Serving errors returned by Server tenant operations.
var (
	// ErrServerClosed is returned by operations on a closed Server.
	ErrServerClosed = serve.ErrClosed
	// ErrUnknownTenant is returned for tenant ids that are not registered.
	ErrUnknownTenant = serve.ErrUnknownTenant
	// ErrDuplicateTenant is returned by AddTenant for an id already in use.
	ErrDuplicateTenant = serve.ErrDuplicateTenant
	// ErrTenantRemoved is returned when an operation's tenant was removed
	// while the operation waited.
	ErrTenantRemoved = serve.ErrRemoved
)

// Server multiplexes many independent pipelines — tenants, each with its own
// program, stream, private intern table, and memory budget — over one shared
// fleet of executor workers, with deficit-round-robin fair scheduling,
// bounded per-tenant ingress queues, and tenant add/remove/drain that never
// disturbs neighbors. It is the multi-tenant serving layer: "millions of
// users" as many programs × many streams in one process. All methods are
// safe for concurrent use.
type Server struct {
	s *serve.Server
}

// NewServer starts the shared fleet and returns an empty server; add
// pipelines with AddTenant and feed them with Push.
func NewServer(cfg ServerConfig) *Server {
	return &Server{s: serve.NewServer(cfg)}
}

// AddTenant admits a new pipeline under id. The tenant's engine always owns
// a private intern table (rotating when a memory budget is set), so tenants
// never share — or grow — the process-wide default table.
func (s *Server) AddTenant(id string, tc TenantConfig) error { return s.s.AddTenant(id, tc) }

// Push feeds one triple into the tenant's window operator; completed windows
// queue for the fleet. When the tenant's queue is full, Push sheds the
// oldest window or blocks, per the tenant's Overflow policy.
func (s *Server) Push(id string, tr Triple) error { return s.s.Push(id, tr) }

// Drain flushes the tenant's uncovered window tail and blocks until all its
// queued windows are processed and delivered.
func (s *Server) Drain(id string) error { return s.s.Drain(id) }

// DrainAll drains every registered tenant.
func (s *Server) DrainAll() error { return s.s.DrainAll() }

// RemoveTenant evicts a tenant without disturbing its neighbors: the
// in-flight window (if any) completes and is delivered, queued windows are
// discarded, and the tenant's engine is released.
func (s *Server) RemoveTenant(id string) error { return s.s.RemoveTenant(id) }

// Resize grows or shrinks the fleet to n executor goroutines; shrinking
// takes effect as workers finish their current window.
func (s *Server) Resize(n int) { s.s.Resize(n) }

// FleetWorkers returns the current fleet size target.
func (s *Server) FleetWorkers() int { return s.s.Workers() }

// AddWorker joins a remote worker address to every remote-backed tenant
// (elastic join, quiescing each tenant's in-flight window first). Tenants
// with local engines are unaffected.
func (s *Server) AddWorker(addr string) error { return s.s.AddWorker(addr) }

// RemoveWorker removes a remote worker address from every remote-backed
// tenant; a tenant whose last worker would be removed reports an error and
// the first such error is returned after the sweep.
func (s *Server) RemoveWorker(addr string) error { return s.s.RemoveWorker(addr) }

// Stats snapshots the server's aggregate and per-tenant serving metrics.
func (s *Server) Stats() ServerStats { return s.s.Stats() }

// TenantStats returns one tenant's metrics row (ok=false when unknown).
func (s *Server) TenantStats(id string) (TenantStats, bool) { return s.s.TenantStats(id) }

// Close stops the fleet: in-flight windows complete, queued windows are
// discarded, and every tenant engine is released. The server must not be
// used afterwards.
func (s *Server) Close() { s.s.Close() }
