// Command streamrule runs the full extended-StreamRule pipeline: a triple
// stream (from a file or the synthetic paper workload) is filtered, batched
// into windows, and reasoned over with the whole-window reasoner R, the
// dependency-partitioned parallel reasoner PR, or the distributed reasoner
// DPR (partitions on remote workers). The same binary also serves as a
// worker.
//
// Usage:
//
//	streamrule -paper P -window 5000 -windows 4            # synthetic stream
//	streamrule -paper Pprime -mode R -window 10000
//	streamrule -program rules.lp -inpre a,b -stream s.nt   # user program
//	streamrule -paper P -outputs traffic_jam,car_fire
//	streamrule -worker :7070                               # serve as a worker
//	streamrule -paper P -workers h1:7070,h2:7070           # coordinate DPR
package main

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"time"

	"streamrule"
	"streamrule/internal/bench"
	"streamrule/internal/chaos"
	"streamrule/internal/rdf"
	"streamrule/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("streamrule", flag.ContinueOnError)
	fs.SetOutput(stderr)
	programFile := fs.String("program", "", "ASP program file")
	inpre := fs.String("inpre", "", "comma-separated input predicates (required with -program)")
	outputs := fs.String("outputs", "", "comma-separated output predicates (default: all derived, or the program's #show)")
	paper := fs.String("paper", "", "use a built-in paper program: P, Pprime, or Presidual (P + residual incident-response rules)")
	streamFile := fs.String("stream", "", "triple file 's p o .' per line (default: synthetic paper workload)")
	mode := fs.String("mode", "PR", "reasoner: R (whole window), PR (dependency-partitioned), or DPR (distributed; implied by -workers)")
	worker := fs.String("worker", "", "serve as a reasoning worker on this address (host:port) instead of running a pipeline")
	serveN := fs.Int("serve", 0, "multi-tenant serving demo: run this many concurrent tenant pipelines of the selected program over one shared fleet and print per-tenant stats")
	fleet := fs.Int("fleet", 4, "with -serve: shared executor workers in the fleet")
	workers := fs.String("workers", "", "comma-separated worker addresses; selects the distributed reasoner DPR")
	straggler := fs.Duration("straggler", 0, "with -workers: per-window worker timeout before local fallback (default 10s)")
	inflight := fs.Int("inflight", 1, "with -workers: pipeline depth — windows in flight per worker session (1 = lockstep)")
	window := fs.Int("window", 5000, "tuple-based window size")
	step := fs.Int("step", 0, "sliding step (< window makes the count window sliding; the engine then grounds incrementally)")
	windows := fs.Int("windows", 4, "number of synthetic windows to stream (with the generator)")
	seed := fs.Int64("seed", 1, "synthetic workload seed")
	rate := fs.Int("rate", 0, "stream rate in triples/second (0 = unpaced)")
	budget := fs.Int("budget", 0, "memory budget in interned atoms (> 0 evicts unreferenced table entries between windows; for streams with unbounded vocabularies)")
	naive := fs.Bool("naive-solver", false, "use the legacy rescan propagator instead of the counter/worklist engine (ablation; full enumerations identical)")
	cdnl := fs.Bool("cdnl", false, "use the conflict-driven solver: clause learning, backjumping, loop nogoods (answers identical; work profile differs)")
	tlsCert := fs.String("tls-cert", "", "PEM certificate: the worker's serving cert with -worker, the coordinator's client cert with -workers (enables TLS)")
	tlsKey := fs.String("tls-key", "", "PEM private key for -tls-cert")
	tlsCA := fs.String("tls-ca", "", "PEM CA bundle: verifies coordinator client certs with -worker (mutual TLS), verifies workers with -workers")
	chaosSeed := fs.Int64("chaos", 0, "with -workers: wrap worker connections in the seeded fault injector at development rates (dial refusals, resets, corruption, duplicates, delays); same seed = same fault schedule")
	verbose := fs.Bool("v", false, "print every answer atom (default: summary per window)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	tlsConf, err := loadTLS(*tlsCert, *tlsKey, *tlsCA, *worker != "")
	if err != nil {
		return fail(stderr, err)
	}

	if *worker != "" {
		// Worker mode: no program of its own — every coordinator session
		// ships one in its handshake. Runs until interrupted.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		fmt.Fprintf(stdout, "worker: serving on %s\n", *worker)
		if err := streamrule.ServeWorkerTLS(ctx, *worker, tlsConf); err != nil && !errors.Is(err, context.Canceled) {
			return fail(stderr, err)
		}
		return 0
	}

	var src string
	var preds []string
	switch {
	case *paper == "P":
		src, preds = bench.ProgramP, bench.Inpre
	case *paper == "Pprime":
		src, preds = bench.ProgramPPrime, bench.Inpre
	case *paper == "Presidual":
		src, preds = bench.ProgramResidual, bench.Inpre
	case *programFile != "":
		data, err := os.ReadFile(*programFile)
		if err != nil {
			return fail(stderr, err)
		}
		src = string(data)
		preds = splitList(*inpre)
		if len(preds) == 0 {
			return fail(stderr, fmt.Errorf("-inpre is required with -program"))
		}
	default:
		fmt.Fprintln(stderr, "usage: streamrule (-paper P|Pprime | -program rules.lp -inpre ...) [flags]")
		fs.Usage()
		return 2
	}

	if *serveN > 0 {
		return serveTenants(stdout, stderr, src, preds, serveOpts{
			tenants: *serveN, fleet: *fleet,
			window: *window, step: *step, windows: *windows,
			seed: *seed, budget: *budget,
		})
	}

	prog, err := streamrule.LoadProgram(src, preds)
	if err != nil {
		return fail(stderr, err)
	}
	var opts []streamrule.Option
	if outs := splitList(*outputs); len(outs) > 0 {
		opts = append(opts, streamrule.WithOutputPredicates(outs...))
	}
	if *budget > 0 {
		opts = append(opts, streamrule.WithMemoryBudget(*budget))
	}
	if *naive {
		opts = append(opts, streamrule.WithNaivePropagation())
	}
	if *cdnl {
		opts = append(opts, streamrule.WithCDNL())
	}

	reasonerMode := strings.ToUpper(*mode)
	if *workers != "" {
		reasonerMode = "DPR"
	}
	var eng streamrule.Reasoner
	var chaosInj *chaos.Injector
	switch reasonerMode {
	case "R":
		eng, err = streamrule.NewEngine(prog, opts...)
	case "DPR":
		addrs := splitList(*workers)
		if len(addrs) == 0 {
			return fail(stderr, fmt.Errorf("-mode DPR requires -workers host1:port,host2:port"))
		}
		if *straggler > 0 {
			opts = append(opts, streamrule.WithStragglerTimeout(*straggler))
		}
		if *inflight > 1 {
			opts = append(opts, streamrule.WithMaxInFlight(*inflight))
		}
		if tlsConf != nil {
			opts = append(opts, streamrule.WithTransportTLS(tlsConf))
		}
		if *chaosSeed != 0 {
			// Development fault rates: frequent enough to exercise every
			// recovery path over a short run, rare enough that most windows
			// still complete remotely.
			chaosInj = chaos.New(chaos.Config{
				Seed:       *chaosSeed,
				DialRefuse: 0.05,
				Reset:      0.02,
				Corrupt:    0.02,
				Duplicate:  0.01,
				Delay:      0.2,
				DelayFor:   2 * time.Millisecond,
			})
			opts = append(opts, streamrule.WithDialer(chaosInj.Dial))
			fmt.Fprintf(stdout, "chaos: injecting faults on the worker wire (seed %d)\n", *chaosSeed)
		}
		var de *streamrule.DistributedEngine
		de, err = streamrule.NewDistributedEngine(prog, addrs, opts...)
		if err == nil {
			defer de.Close()
			fmt.Fprintf(stdout, "partitions: %d over %d worker(s)\n", de.Partitions(), len(addrs))
			if de.Plan() != nil {
				fmt.Fprintf(stdout, "partitioning plan:\n%s", de.Plan())
			}
		}
		eng = de
	case "PR":
		var pe *streamrule.ParallelEngine
		pe, err = streamrule.NewParallelEngine(prog, opts...)
		if err == nil {
			fmt.Fprintf(stdout, "partitions: %d\n", pe.Partitions())
			if pe.Plan() != nil {
				fmt.Fprintf(stdout, "partitioning plan:\n%s", pe.Plan())
			}
		}
		eng = pe
	default:
		err = fmt.Errorf("unknown -mode %q", *mode)
	}
	if err != nil {
		return fail(stderr, err)
	}

	var source []streamrule.Triple
	if *streamFile != "" {
		f, err := os.Open(*streamFile)
		if err != nil {
			return fail(stderr, err)
		}
		source, err = rdf.Read(f)
		f.Close()
		if err != nil {
			return fail(stderr, err)
		}
	} else {
		specs := workload.PaperTraffic()
		if *paper == "Presidual" {
			// The residual program pairs with its skewed workload: hostile
			// rates keep the solver off the fast path every window.
			specs = workload.ResidualTraffic()
		}
		gen, err := workload.NewGenerator(*seed, specs)
		if err != nil {
			return fail(stderr, err)
		}
		source = gen.Window(*window * *windows)
	}

	pl := &streamrule.Pipeline{
		Source:     source,
		Rate:       *rate,
		Filter:     streamrule.PredicateFilter(preds...),
		WindowSize: *window,
		WindowStep: *step,
		Reasoner:   eng,
	}
	n := 0
	var solveTotals streamrule.SolveStats
	residualWindows := 0
	err = pl.Run(context.Background(), func(win []streamrule.Triple, out *streamrule.Output) error {
		n++
		solveTotals.Add(out.SolveStats)
		if !out.SolveStats.FastPath {
			residualWindows++
		}
		ground := "scratch"
		if out.Incremental {
			ground = "incremental"
		}
		fmt.Fprintf(stdout, "window %d: %d items -> %d answer(s), %s grounding, latency total=%v critical-path=%v (convert=%v ground=%v solve=%v partition=%v combine=%v)\n",
			n, len(win), len(out.Answers), ground, out.Latency.Total, out.Latency.CriticalPath,
			out.Latency.Convert, out.Latency.Ground, out.Latency.Solve,
			out.Latency.Partition, out.Latency.Combine)
		for i, ans := range out.Answers {
			if *verbose {
				fmt.Fprintf(stdout, "  answer %d: %s\n", i+1, ans)
			} else {
				fmt.Fprintf(stdout, "  answer %d: %d atoms\n", i+1, ans.Len())
			}
		}
		return nil
	})
	if err != nil {
		return fail(stderr, err)
	}
	if residualWindows > 0 {
		// Solver work profile: only residual windows (programs the grounder
		// could not fully evaluate) engage the search; stratified windows
		// ride the fast path and contribute nothing here.
		fmt.Fprintf(stdout, "solver: residual-windows=%d/%d rule-visits=%d queue-pushes=%d source-repairs=%d choices=%d propagations=%d stability-checks=%d\n",
			residualWindows, n, solveTotals.RuleVisits, solveTotals.QueuePushes, solveTotals.SourceRepairs,
			solveTotals.Choices, solveTotals.Propagations, solveTotals.StabilityChecks)
		if *cdnl {
			fmt.Fprintf(stdout, "cdnl: conflicts=%d learned=%d backjumps=%d loop-nogoods=%d\n",
				solveTotals.Conflicts, solveTotals.Learned, solveTotals.Backjumps,
				solveTotals.LoopNogoods)
		}
	}
	if st, ok := pl.MemoryStats(); ok && st.Budget > 0 {
		fmt.Fprintf(stdout, "memory: budget=%d atoms live=%d bytes=%d peak=%d rotations=%d shrinks=%d evicted=%d remap=%v\n",
			st.Budget, st.Table.Atoms, st.Table.Bytes, st.Table.PeakAtoms,
			st.Table.Rotations, st.Table.Shrinks, st.Table.EvictedAtoms, st.Table.RemapTime)
	}
	if ts, ok := pl.TransportStats(); ok {
		fmt.Fprintf(stdout, "transport: remote=%d fallback=%d redials=%d heartbeats=%d circuit-opens=%d crc-fail=%d sent=%dB recv=%dB dict-hit=%.1f%% worker-rotations=%d\n",
			ts.RemoteWindows, ts.LocalFallbacks, ts.Redials, ts.Heartbeats, ts.CircuitOpens,
			ts.ChecksumFailures, ts.BytesSent, ts.BytesReceived,
			100*ts.DictHitRate(), ts.WorkerRotations)
		if ts.Windows > 0 {
			fmt.Fprintf(stdout, "wire: rounds=%d req-bytes/win=%d resp-bytes/win=%d req-dict-hit=%.1f%% resp-dict-hit=%.1f%% mean-inflight=%.2f full=%d delta=%d\n",
				ts.Rounds, ts.BytesSent/ts.Windows, ts.BytesReceived/ts.Windows,
				100*ts.ReqDictHitRate(), 100*ts.DictHitRate(), ts.MeanInFlight(),
				ts.FullPartWindows, ts.DeltaPartWindows)
		}
	}
	if chaosInj != nil {
		cs := chaosInj.Stats()
		fmt.Fprintf(stdout, "chaos: refused-dials=%d resets=%d corrupted=%d duplicated=%d delayed=%d stalls=%d crashes=%d\n",
			cs.RefusedDials, cs.Resets, cs.CorruptedFrames, cs.DuplicatedFrames,
			cs.DelayedFrames, cs.Stalls, cs.Crashes)
	}
	return 0
}

// loadTLS builds the TLS configuration from the -tls-* flags; all empty =
// nil (plaintext). A worker serves with cert+key and — when a CA is given —
// demands client certificates signed by it (mutual TLS). A coordinator
// verifies workers against the CA and presents cert+key as its client
// identity when provided.
func loadTLS(certFile, keyFile, caFile string, isWorker bool) (*tls.Config, error) {
	if certFile == "" && keyFile == "" && caFile == "" {
		return nil, nil
	}
	cfg := &tls.Config{}
	if (certFile == "") != (keyFile == "") {
		return nil, fmt.Errorf("-tls-cert and -tls-key must be given together")
	}
	if certFile != "" {
		cert, err := tls.LoadX509KeyPair(certFile, keyFile)
		if err != nil {
			return nil, fmt.Errorf("loading TLS keypair: %w", err)
		}
		cfg.Certificates = []tls.Certificate{cert}
	}
	var pool *x509.CertPool
	if caFile != "" {
		pem, err := os.ReadFile(caFile)
		if err != nil {
			return nil, fmt.Errorf("loading TLS CA: %w", err)
		}
		pool = x509.NewCertPool()
		if !pool.AppendCertsFromPEM(pem) {
			return nil, fmt.Errorf("no certificates in %s", caFile)
		}
	}
	if isWorker {
		if certFile == "" {
			return nil, fmt.Errorf("-worker with TLS requires -tls-cert and -tls-key")
		}
		if pool != nil {
			cfg.ClientCAs = pool
			cfg.ClientAuth = tls.RequireAndVerifyClientCert
		}
	} else if pool != nil {
		cfg.RootCAs = pool
	}
	return cfg, nil
}

type serveOpts struct {
	tenants, fleet        int
	window, step, windows int
	budget                int
	seed                  int64
}

// serveTenants is the -serve mode: N concurrent tenant pipelines of the same
// program — each over its own tenant-prefixed synthetic stream and private
// intern table — multiplexed onto one shared fleet, then the ServerStats
// table.
func serveTenants(stdout, stderr io.Writer, src string, preds []string, o serveOpts) int {
	srv := streamrule.NewServer(streamrule.ServerConfig{Workers: o.fleet})
	defer srv.Close()

	items := o.window * o.windows
	step := o.step
	if step <= 0 {
		step = o.window
	}
	ids := make([]string, o.tenants)
	streams := make([][]streamrule.Triple, o.tenants)
	for i := range ids {
		ids[i] = fmt.Sprintf("t%d", i)
		gen, err := workload.NewGenerator(o.seed+int64(i), workload.TenantTraffic(ids[i]))
		if err != nil {
			return fail(stderr, err)
		}
		streams[i] = gen.Window(items)
		err = srv.AddTenant(ids[i], streamrule.TenantConfig{
			Program: src, Inpre: preds,
			WindowSize: o.window, WindowStep: o.step,
			MemoryBudget: o.budget, QueueDepth: items/step + 2,
		})
		if err != nil {
			return fail(stderr, err)
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	pushErr := make(chan error, o.tenants)
	for i := range ids {
		wg.Add(1)
		go func(id string, triples []streamrule.Triple) {
			defer wg.Done()
			for _, tr := range triples {
				if err := srv.Push(id, tr); err != nil {
					pushErr <- fmt.Errorf("%s: %w", id, err)
					return
				}
			}
		}(ids[i], streams[i])
	}
	wg.Wait()
	select {
	case err := <-pushErr:
		return fail(stderr, err)
	default:
	}
	if err := srv.DrainAll(); err != nil {
		return fail(stderr, err)
	}
	elapsed := time.Since(start)

	st := srv.Stats()
	fmt.Fprintf(stdout, "serve: %d tenants on %d shared workers: %d windows in %v (%.0f windows/sec)\n",
		st.Tenants, st.Workers, st.TotalWindows, elapsed.Round(time.Millisecond),
		float64(st.TotalWindows)/elapsed.Seconds())
	fmt.Fprintf(stdout, "fleet: p50=%v p99=%v shed=%d errors=%d fallbacks=%d live-atoms=%d\n",
		st.P50, st.P99, st.TotalShed, st.TotalErrors, st.TotalFallbacks, st.LiveAtoms)
	const maxRows = 8
	fmt.Fprintf(stdout, "%-10s %8s %8s %10s %10s %6s %6s %10s\n",
		"tenant", "windows", "queue", "p50", "p99", "shed", "errs", "live-atoms")
	for i, row := range st.PerTenant {
		if i == maxRows {
			fmt.Fprintf(stdout, "... %d more tenants elided\n", len(st.PerTenant)-maxRows)
			break
		}
		fmt.Fprintf(stdout, "%-10s %8d %8d %10v %10v %6d %6d %10d\n",
			row.ID, row.Windows, row.QueueLen, row.P50.Round(time.Microsecond),
			row.P99.Round(time.Microsecond), row.Shed, row.Errors, row.LiveAtoms)
	}
	return 0
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "streamrule:", err)
	return 1
}
