// Wire-economics gate: SteadyStateRequestBytes drives serial DPR over
// in-process loopback workers on a sliding stream and reports the mean
// request bytes per window, which TestRequestBytesBudget holds against a
// committed baseline.

package bench

import (
	"fmt"
	"time"

	"streamrule/internal/asp/parser"
	"streamrule/internal/core"
	"streamrule/internal/rdf"
	"streamrule/internal/reasoner"
	"streamrule/internal/stream"
	"streamrule/internal/transport"
	"streamrule/internal/workload"
)

// slidingEmissions replays triples through a sliding count window, returning
// every emission with its delta (the stream the pipeline would deliver).
func slidingEmissions(triples []rdf.Triple, size, step int) []stream.WindowDelta {
	w := &stream.SlidingCountWindow{Size: size, Step: step}
	base := time.Unix(0, 0)
	var out []stream.WindowDelta
	for i, tr := range triples {
		if wd := w.AddDelta(stream.Item{Triple: tr, At: base.Add(time.Duration(i) * time.Millisecond)}); wd != nil {
			out = append(out, *wd)
		}
	}
	return out
}

// startLoopbackWorkers spins up n in-process workers and returns their
// addresses plus a shutdown func.
func startLoopbackWorkers(n int) ([]string, func(), error) {
	addrs := make([]string, 0, n)
	var srvs []*transport.Server
	stop := func() {
		for _, s := range srvs {
			s.Close()
		}
	}
	for i := 0; i < n; i++ {
		srv, err := transport.NewServer("127.0.0.1:0", reasoner.NewWorkerHandler(), transport.ServerOptions{})
		if err != nil {
			stop()
			return nil, nil, err
		}
		go srv.Serve()
		srvs = append(srvs, srv)
		addrs = append(addrs, srv.Addr())
	}
	return addrs, stop, nil
}

// SteadyStateRequestBytes measures the request-side wire cost of serial DPR
// on repeating-constant traffic (program P, the paper's workload), returning
// mean request bytes per window after skipping warmup windows. The
// measurement is deterministic for a given configuration — the regression
// gate snapshots it.
func SteadyStateRequestBytes(seed int64, size, step, windows, warmup int) (int64, error) {
	prog, err := parser.Parse(ProgramP)
	if err != nil {
		return 0, err
	}
	rcfg := reasoner.Config{Program: prog, Inpre: Inpre, OutputPreds: Outputs}
	analysis, err := core.Analyze(prog, Inpre, 1.0)
	if err != nil {
		return 0, err
	}
	gen, err := workload.NewGenerator(seed, workload.PaperTraffic())
	if err != nil {
		return 0, err
	}
	emissions := slidingEmissions(gen.Window(size+step*(windows-1)), size, step)
	if len(emissions) <= warmup {
		return 0, fmt.Errorf("bench: only %d emissions for %d warmup windows", len(emissions), warmup)
	}
	addrs, stopWorkers, err := startLoopbackWorkers(2)
	if err != nil {
		return 0, err
	}
	defer stopWorkers()
	dpr, err := reasoner.NewDPR(rcfg, reasoner.NewPlanPartitioner(analysis.Plan), reasoner.DPROptions{
		Workers:          addrs,
		ProgramSource:    ProgramP,
		StragglerTimeout: 30 * time.Second,
	})
	if err != nil {
		return 0, err
	}
	defer dpr.Close()
	var sentWarm int64
	for wi, wd := range emissions {
		var d *reasoner.Delta
		if wd.Incremental {
			d = &reasoner.Delta{Added: wd.Added, Retracted: wd.Retracted}
		}
		if _, err := dpr.ProcessDelta(wd.Window, d); err != nil {
			return 0, fmt.Errorf("window %d: %w", wi, err)
		}
		if wi == warmup-1 {
			sentWarm = dpr.TransportStats().BytesSent
		}
	}
	ts := dpr.TransportStats()
	if ts.LocalFallbacks > 0 {
		return 0, fmt.Errorf("bench: %d local fallbacks on loopback workers", ts.LocalFallbacks)
	}
	return (ts.BytesSent - sentWarm) / int64(len(emissions)-warmup), nil
}
