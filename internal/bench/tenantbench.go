package bench

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"streamrule/internal/asp/intern"
	"streamrule/internal/asp/parser"
	"streamrule/internal/rdf"
	"streamrule/internal/reasoner"
	"streamrule/internal/serve"
	"streamrule/internal/stream"
	"streamrule/internal/workload"
)

// TenantBenchConfig sizes the many-tenant serving benchmark: N concurrent
// small pipelines — each with a tenant-private entity vocabulary — over one
// shared fleet.
type TenantBenchConfig struct {
	// Tenants is the number of concurrent pipelines (default 500).
	Tenants int
	// FleetWorkers is the shared executor count (default 4).
	FleetWorkers int
	// WindowSize/WindowStep shape each tenant's sliding window (default
	// 30/10).
	WindowSize, WindowStep int
	// Items is each tenant's stream length in triples (default 90).
	Items int
	// Budget is the per-tenant intern-table budget in entries (default 512).
	Budget int
	// Seed varies the tenant streams.
	Seed int64
	// Oracle additionally runs every tenant's stream through a solo
	// reasoner and counts answer mismatches (slower; the correctness gate).
	Oracle bool
}

func (c *TenantBenchConfig) fill() {
	if c.Tenants <= 0 {
		c.Tenants = 500
	}
	if c.FleetWorkers <= 0 {
		c.FleetWorkers = 4
	}
	if c.WindowSize <= 0 {
		c.WindowSize = 30
	}
	if c.WindowStep <= 0 {
		c.WindowStep = 10
	}
	if c.Items <= 0 {
		c.Items = 90
	}
	if c.Budget <= 0 {
		c.Budget = 512
	}
}

// TenantBenchResult reports one serving round.
type TenantBenchResult struct {
	Tenants      int
	FleetWorkers int
	// Windows is the total processed across all tenants; WindowsPerSec is
	// Windows over the serving wall time (push start to drain end).
	Windows       uint64
	Elapsed       time.Duration
	WindowsPerSec float64
	// P50/P99 are per-tenant window latencies (enqueue to delivered)
	// aggregated across all tenants' sample rings.
	P50, P99 time.Duration
	// Shed and Errors sum the per-tenant counters (both must be zero in a
	// correctly sized run).
	Shed, Errors uint64
	// Mismatches counts tenant windows whose answers differed from the
	// tenant's solo run (Oracle mode only).
	Mismatches int
	// DefaultTableDelta is the growth of the process-wide default intern
	// table over the round — any nonzero value is a cross-tenant leak.
	DefaultTableDelta int
}

func (r *TenantBenchResult) String() string {
	return fmt.Sprintf("%d tenants / %d workers: %d windows in %v (%.0f windows/sec), p50 %v p99 %v, shed %d, mismatches %d, default-table delta %d",
		r.Tenants, r.FleetWorkers, r.Windows, r.Elapsed.Round(time.Millisecond),
		r.WindowsPerSec, r.P50, r.P99, r.Shed, r.Mismatches, r.DefaultTableDelta)
}

// tenantSig renders one window's answers in canonical comparable form.
func tenantSig(out *reasoner.Output) string {
	sigs := make([]string, len(out.Answers))
	for i, a := range out.Answers {
		keys := a.Keys()
		sort.Strings(keys)
		sigs[i] = fmt.Sprint(keys)
	}
	sort.Strings(sigs)
	return fmt.Sprint(sigs)
}

// RunManyTenants serves cfg.Tenants concurrent pipelines of the paper
// program — each over its own tenant-prefixed traffic — on one shared
// fleet, drains, and reports throughput, latency percentiles, and the
// isolation counters.
func RunManyTenants(cfg TenantBenchConfig) (*TenantBenchResult, error) {
	cfg.fill()
	defaultBefore := intern.Default().Stats()

	srv := serve.NewServer(serve.Config{Workers: cfg.FleetWorkers})
	defer srv.Close()

	type tenantRun struct {
		id      string
		triples []rdf.Triple
		mu      sync.Mutex
		sigs    []string
	}
	runs := make([]*tenantRun, cfg.Tenants)
	// Queue depth: every emission of the stream may be waiting at once.
	depth := cfg.Items/cfg.WindowStep + 2
	for i := range runs {
		tr := &tenantRun{id: fmt.Sprintf("t%d", i)}
		gen, err := workload.NewGenerator(cfg.Seed+int64(i), workload.TenantTraffic(tr.id))
		if err != nil {
			return nil, err
		}
		tr.triples = gen.Window(cfg.Items)
		err = srv.AddTenant(tr.id, serve.TenantConfig{
			Program: ProgramP, Inpre: Inpre,
			WindowSize: cfg.WindowSize, WindowStep: cfg.WindowStep,
			MemoryBudget: cfg.Budget,
			QueueDepth:   depth,
			Handle: func(_ []rdf.Triple, out *reasoner.Output) {
				s := tenantSig(out)
				tr.mu.Lock()
				tr.sigs = append(tr.sigs, s)
				tr.mu.Unlock()
			},
		})
		if err != nil {
			return nil, err
		}
		runs[i] = tr
	}

	start := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, cfg.Tenants)
	for _, tr := range runs {
		wg.Add(1)
		go func(tr *tenantRun) {
			defer wg.Done()
			for _, triple := range tr.triples {
				if err := srv.Push(tr.id, triple); err != nil {
					errc <- fmt.Errorf("%s: %w", tr.id, err)
					return
				}
			}
		}(tr)
	}
	wg.Wait()
	select {
	case err := <-errc:
		return nil, err
	default:
	}
	if err := srv.DrainAll(); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	st := srv.Stats()
	res := &TenantBenchResult{
		Tenants: cfg.Tenants, FleetWorkers: cfg.FleetWorkers,
		Windows: st.TotalWindows, Elapsed: elapsed,
		WindowsPerSec: float64(st.TotalWindows) / elapsed.Seconds(),
		P50:           st.P50, P99: st.P99,
		Shed: st.TotalShed, Errors: st.TotalErrors,
	}

	if cfg.Oracle {
		for _, tr := range runs {
			want, err := soloTenantSigs(cfg, tr.triples)
			if err != nil {
				return nil, fmt.Errorf("%s oracle: %w", tr.id, err)
			}
			tr.mu.Lock()
			got := tr.sigs
			tr.mu.Unlock()
			if len(got) != len(want) {
				res.Mismatches += len(want)
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					res.Mismatches++
				}
			}
		}
	}

	defaultAfter := intern.Default().Stats()
	res.DefaultTableDelta = (defaultAfter.Atoms - defaultBefore.Atoms) +
		(defaultAfter.Syms - defaultBefore.Syms) +
		(defaultAfter.Terms - defaultBefore.Terms) +
		(defaultAfter.Preds - defaultBefore.Preds)
	return res, nil
}

// soloTenantSigs runs one tenant's stream through a fresh private reasoner
// with the exact windowing the server applies — the per-tenant ground truth.
func soloTenantSigs(cfg TenantBenchConfig, triples []rdf.Triple) ([]string, error) {
	prog, err := parser.Parse(ProgramP)
	if err != nil {
		return nil, err
	}
	r, err := reasoner.NewR(reasoner.Config{
		Program: prog, Inpre: Inpre, MemoryBudget: cfg.Budget,
	})
	if err != nil {
		return nil, err
	}
	w := &stream.SlidingCountWindow{Size: cfg.WindowSize, Step: cfg.WindowStep}
	var sigs []string
	process := func(win []rdf.Triple, d *reasoner.Delta) error {
		out, err := r.ProcessDelta(win, d)
		if err != nil {
			return err
		}
		sigs = append(sigs, tenantSig(out))
		return nil
	}
	for _, tr := range triples {
		if wd := w.AddDelta(stream.Item{Triple: tr}); wd != nil {
			var d *reasoner.Delta
			if wd.Incremental {
				d = &reasoner.Delta{Added: wd.Added, Retracted: wd.Retracted}
			}
			if err := process(wd.Window, d); err != nil {
				return nil, err
			}
		}
	}
	if rest := w.Flush(); len(rest) > 0 {
		if err := process(rest, nil); err != nil {
			return nil, err
		}
	}
	return sigs, nil
}
