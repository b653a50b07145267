package main

import (
	_ "embed"
	"fmt"

	"streamrule"
	"streamrule/internal/bench"
	"streamrule/internal/workload"
)

//go:embed programs/residual6.lp
var programResidual6 string

type engineKind int

const (
	engineR   engineKind = iota // streamrule.Engine
	enginePR                    // streamrule.ParallelEngine
	engineDPR                   // streamrule.DistributedEngine over loopback workers
	engineServer
)

type oracleKind int

const (
	oracleScratchR   oracleKind = iota // from-scratch Engine, accuracy 1.0 and equal answers
	oracleNaive                        // WithNaivePropagation engine, equal multisets, fixed model count
	oracleLocalPR                      // local ParallelEngine, zero local fallbacks
	oracleSoloTenant                   // each sampled tenant alone through Pipeline + Engine
)

// spec is one workload. Sizes are fields so that smoke_test.go can run the
// same code at a fraction of the size; the names and shapes are fixed.
type spec struct {
	name, why string

	program string
	engine  engineKind
	oracle  oracleKind
	budget  int // WithMemoryBudget / TenantConfig.MemoryBudget, 0 = none
	models  int // answer sets every window must have, 0 = not checked

	size, step int // window shape in items; step == size is tumbling
	traffic    func(seed int64, size int) func(items int) []streamrule.Triple

	warm int // warm-up windows, part of set-up
	// windows is how many windows the timed phase reasons over: the same
	// windows on every commit, so that a faster engine ends its run sooner and
	// does not measure a different stretch of the stream. --seconds only cuts a
	// run short on a machine too slow to get through them. The traced run
	// takes a third of them, once through the facade and once through the walk.
	windows int
	exact   int // leading timed windows whose counts and digest are reported exactly
	// live_heap_mb is the largest live heap at timed windows heapEvery,
	// 2*heapEvery, ... heapLast. A table that rotates under a budget makes the
	// heap a sawtooth; its samples span two teeth.
	heapEvery, heapLast int
	// A tumbling stream is generated chunk windows at a time, between timed
	// segments, so that the benchmark's own buffer stays small beside the
	// engine's heap; 0 generates it whole, which a sliding stream needs to be:
	// its windows overlap, so it is one Pipeline.Run.
	chunk int

	// tenants-1k only.
	tenants     int
	pool        int     // triples each tenant replays in a cycle
	fleet       int     // Server executor goroutines
	sampled     int     // tenants checked against their solo run
	rounds      int     // closed loop: one triple to every tenant, this many times
	rateLo      float64 // open-loop items/s, about 30% of the seed commit's closed-loop rate
	rateHi      float64 // about 70%
	openSeconds float64 // each open-loop phase pushes rate*openSeconds items
	lagLimit    float64 // ms; windows slower than this are counted as over the limit
}

func (s *spec) tumbling() bool { return s.step == s.size }

// shareStrings makes equal subjects and objects share one string, so that a
// generated stream costs its triples and little more. The stream a sliding
// run holds is a large part of what the process keeps resident.
func shareStrings(ts []streamrule.Triple, seen map[string]string) {
	share := func(s string) string {
		if c, ok := seen[s]; ok {
			return c
		}
		seen[s] = s
		return s
	}
	for i := range ts {
		ts[i].S, ts[i].O = share(ts[i].S), share(ts[i].O)
	}
}

// paperStream draws windows of size items from the paper's generator, whose
// entity pools scale with the window size.
func paperStream(specs func() []workload.TripleSpec) func(int64, int) func(int) []streamrule.Triple {
	return func(seed int64, size int) func(int) []streamrule.Triple {
		g, err := workload.NewGenerator(seed, specs())
		if err != nil {
			panic(err) // the spec tables are constants of this repository
		}
		var left []streamrule.Triple
		seen := map[string]string{}
		return func(items int) []streamrule.Triple {
			out := make([]streamrule.Triple, 0, items)
			for len(out) < items {
				if len(left) == 0 {
					left = g.Window(size)
					shareStrings(left, seen)
				}
				n := min(items-len(out), len(left))
				out = append(out, left[:n]...)
				left = left[n:]
			}
			return out
		}
	}
}

// freshStream is bench.FreshTraffic: constants advance with the stream
// position and never recur. It is generated once, up to the first request.
func freshStream(seed int64, _ int) func(int) []streamrule.Triple {
	var all []streamrule.Triple
	return func(items int) []streamrule.Triple {
		if all == nil {
			all = bench.FreshTraffic(seed, items)
			shareStrings(all, map[string]string{})
			return all
		}
		panic("benchmark: a fresh stream is generated whole")
	}
}

func workloads() []*spec {
	return []*spec{
		{
			name:    "tumbling-w20k",
			why:     "paper Fig. 9 shape: from-scratch grounding dominates, P' makes partition, duplication and combine do real work",
			program: bench.ProgramPPrime, engine: enginePR, oracle: oracleScratchR,
			size: 20000, step: 20000, traffic: paperStream(workload.PaperTraffic),
			warm: 10, windows: 300, exact: 20, heapEvery: 20, heapLast: 20, chunk: 10,
		},
		{
			name:    "sliding-w10k-s500",
			why:     "same grounder and intern table used for maintenance: Update, inserts and evictions on constants that never recur, no from-scratch grounding",
			program: bench.ProgramP, engine: enginePR, oracle: oracleScratchR, budget: 60000,
			size: 10000, step: 500, traffic: freshStream,
			warm: 10, windows: 1500, exact: 100, heapEvery: 40, heapLast: 280,
		},
		{
			name:    "residual-w5k",
			why:     "the only workload off the stratified fast path: 64 answer sets per window, so solving and answer projection show here and nowhere else",
			program: programResidual6, engine: engineR, oracle: oracleNaive, models: 64,
			size: 5000, step: 5000, traffic: paperStream(workload.ResidualTraffic),
			warm: 10, windows: 400, exact: 20, heapEvery: 20, heapLast: 20, chunk: 20,
		},
		{
			name:    "tenants-1k",
			why:     "1000 same-program tenants with tiny windows on one Server: per-window fixed costs, scheduling, queue wait and per-tenant set-up dominate",
			program: bench.ProgramP, engine: engineServer, oracle: oracleSoloTenant, budget: 1024,
			size: 60, step: 20,
			warm: 1, exact: 5,
			tenants: 1000, pool: 300, fleet: 2, sampled: 20, rounds: 2400,
			rateLo: 60000, rateHi: 140000, openSeconds: 6, lagLimit: 250,
		},
		{
			name:    "dpr-loopback-w10k-s1k",
			why:     "the only workload where the wire, its dictionaries and pipelining do work: two loopback workers, zero local fallbacks",
			program: bench.ProgramPPrime, engine: engineDPR, oracle: oracleLocalPR,
			size: 10000, step: 1000, traffic: paperStream(workload.PaperTraffic),
			warm: 10, windows: 1500, exact: 50, heapEvery: 50, heapLast: 50,
		},
	}
}

func findWorkload(name string) (*spec, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// shrink scales a workload down for the smoke test: same code paths, a
// fiftieth of the items and a few dozen windows.
func (s *spec) shrink() {
	if s.engine == engineServer {
		s.tenants, s.sampled, s.rounds = 20, 5, 300
		s.rateLo, s.rateHi, s.openSeconds = s.rateLo/50, s.rateHi/50, 0.5
		return
	}
	s.size /= 50
	s.step /= 50
	s.budget /= 250 // tighter than the items, so that a few dozen windows rotate the table
	s.warm, s.windows, s.exact = 3, 36, 5
	s.heapEvery, s.heapLast = 5, 10
}
