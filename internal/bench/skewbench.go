// Skew benchmark: static vs adaptive partitioning under a skewed, bursty
// stream. RunSkewBench drives the residual program over the canned
// skewed+bursty workload (car-heavy, burst, then the skew inverted) through
// a statically partitioned DPR and an adaptive DPR on the same loopback
// fleet. The static layout is stuck with the design-time communities — one
// partition holds ~80% of every window and the other workers idle — while
// the adaptive run observes the imbalance, hash-splits the hot community,
// migrates partitions, and rides out a worker join and leave mid-run. Every
// window of both systems is checked against the monolithic R, so the curve
// only ever reports exact configurations. `make bench7` snapshots the
// speedup-vs-k rows into BENCH_7.json.

package bench

import (
	"fmt"
	"time"

	"streamrule/internal/asp/parser"
	"streamrule/internal/asp/solve"
	"streamrule/internal/atomdep"
	"streamrule/internal/core"
	"streamrule/internal/dfp"
	"streamrule/internal/reasoner"
	"streamrule/internal/workload"
)

// SkewRow is one measured cell of the skew benchmark.
type SkewRow struct {
	// Figure names the workload ("SkewedBursty").
	Figure string `json:"figure"`
	// System is DPR_static or DPR_adaptive.
	System string `json:"system"`
	// Workers is the fleet size the run started with.
	Workers int `json:"workers"`
	// CPMs is the mean modeled critical-path latency in milliseconds:
	// partitioning + the slowest partition's worker-side compute + the
	// cross-worker combine, i.e. the window latency of a cluster that
	// gives every partition its own executor (the paper's deployment).
	// The wall-clock CriticalPath is not used because the loopback fleet
	// shares one machine: there, every "parallel" leg serializes onto the
	// same cores and the measurement reflects the box, not the layout.
	CPMs float64 `json:"cp_ms"`
	// Windows is the number of window emissions processed.
	Windows int `json:"windows"`
	// Moves/Splits/RefusedSplits are the rebalancer's decision counters
	// (zero for the static run).
	Moves         int64 `json:"moves"`
	Splits        int64 `json:"splits"`
	RefusedSplits int64 `json:"refused_splits"`
	// Joins/Leaves count elastic fleet changes during the run.
	Joins  int64 `json:"joins"`
	Leaves int64 `json:"leaves"`
	// Partitions is the final partition count (the static run keeps the
	// design-time plan's).
	Partitions int `json:"partitions"`
	// Fallbacks counts partition windows that fell back to local
	// processing (zero on healthy loopback workers).
	Fallbacks int64 `json:"fallbacks"`
}

// SkewBenchConfig parameterizes one skew-benchmark run.
type SkewBenchConfig struct {
	// Seed drives workload generation (default 11).
	Seed int64
	// WindowSize / WindowStep shape the sliding window (defaults 3000/1000).
	WindowSize, WindowStep int
	// Windows is the number of emissions per system (default 30 — long
	// enough that the adaptive run's warmup and migration reships
	// amortize; adaptation only pays off under sustained skew).
	Windows int
	// Workers is the starting fleet size (default 4). The adaptive run
	// additionally joins a fifth worker a third of the way in and removes
	// one of the original workers at two thirds.
	Workers int
	// MaxFanout caps the adaptive run's per-community hash fan-out
	// (default 8).
	MaxFanout int
	// SkipOracle disables the per-window answer check against the
	// monolithic R (the check dominates small runs).
	SkipOracle bool
}

func (c *SkewBenchConfig) fill() {
	if c.Seed == 0 {
		c.Seed = 11
	}
	if c.WindowSize == 0 {
		c.WindowSize = 3000
	}
	if c.WindowStep == 0 {
		c.WindowStep = 1000
	}
	if c.Windows == 0 {
		c.Windows = 30
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.MaxFanout == 0 {
		c.MaxFanout = 8
	}
}

// RunSkewBench executes the skew benchmark for one fleet size: the residual
// program over the skewed+bursty stream, static DPR vs adaptive DPR, both
// verified window-by-window against R unless SkipOracle is set.
func RunSkewBench(cfg SkewBenchConfig) ([]SkewRow, error) {
	cfg.fill()
	prog, err := parser.Parse(ProgramResidual)
	if err != nil {
		return nil, err
	}
	rcfg := reasoner.Config{Program: prog, Inpre: Inpre, OutputPreds: Outputs}
	analysis, err := core.Analyze(prog, Inpre, 1.0)
	if err != nil {
		return nil, err
	}
	arities, err := dfp.InferArities(prog, Inpre)
	if err != nil {
		return nil, err
	}
	keys := atomdep.Analyze(prog, analysis.Plan)

	total := cfg.WindowSize + cfg.WindowStep*(cfg.Windows-1)
	triples, err := workload.SkewedBurstyStream(cfg.Seed, total)
	if err != nil {
		return nil, err
	}
	emissions := slidingEmissions(triples, cfg.WindowSize, cfg.WindowStep)
	if len(emissions) == 0 {
		return nil, fmt.Errorf("bench: no emissions for window %d step %d", cfg.WindowSize, cfg.WindowStep)
	}

	// Reference answers, once: both systems must match R on every window.
	var refs [][]*solve.AnswerSet
	if !cfg.SkipOracle {
		r, err := reasoner.NewR(rcfg)
		if err != nil {
			return nil, err
		}
		for wi, wd := range emissions {
			out, err := r.Process(wd.Window)
			if err != nil {
				return nil, fmt.Errorf("oracle window %d: %w", wi, err)
			}
			refs = append(refs, out.Answers)
		}
	}

	// drive runs one DPR serially (rebalancing happens between windows, so
	// lockstep gives the adaptive loop a decision point per window), joining
	// and leaving workers at the given indexes (-1 = never).
	drive := func(system string, dpr *reasoner.DPR, joinAt, leaveAt int, joinAddr, leaveAddr string) (SkewRow, error) {
		var cp time.Duration
		for wi, wd := range emissions {
			if wi == joinAt {
				if err := dpr.AddWorker(joinAddr); err != nil {
					return SkewRow{}, fmt.Errorf("%s window %d: AddWorker: %w", system, wi, err)
				}
			}
			if wi == leaveAt {
				if err := dpr.RemoveWorker(leaveAddr); err != nil {
					return SkewRow{}, fmt.Errorf("%s window %d: RemoveWorker: %w", system, wi, err)
				}
			}
			var d *reasoner.Delta
			if wd.Incremental {
				d = &reasoner.Delta{Added: wd.Added, Retracted: wd.Retracted}
			}
			out, err := dpr.ProcessDelta(wd.Window, d)
			if err != nil {
				return SkewRow{}, fmt.Errorf("%s window %d: %w", system, wi, err)
			}
			// Modeled critical path (see SkewRow.CPMs): the slowest
			// partition's own compute bounds the window on a fleet where
			// partitions run on separate executors. PartitionLoads holds
			// the rows of the window just processed even when a
			// post-window rebalance already changed the layout.
			var maxPart time.Duration
			for _, pl := range dpr.PartitionLoads() {
				if pl.CP > maxPart {
					maxPart = pl.CP
				}
			}
			cp += out.Latency.Partition + maxPart + out.Latency.Combine
			if refs != nil {
				if a, b := reasoner.Accuracy(out.Answers, refs[wi]), reasoner.Accuracy(refs[wi], out.Answers); a < 0.9999 || b < 0.9999 {
					return SkewRow{}, fmt.Errorf("%s window %d: answers diverge from R (recall %.4f / %.4f)", system, wi, a, b)
				}
			}
		}
		ts := dpr.TransportStats()
		rs := dpr.RebalanceStats()
		return SkewRow{
			Figure:        "SkewedBursty",
			System:        system,
			Workers:       cfg.Workers,
			CPMs:          float64((cp / time.Duration(len(emissions))).Microseconds()) / 1000,
			Windows:       len(emissions),
			Moves:         rs.Moves,
			Splits:        rs.Splits,
			RefusedSplits: rs.RefusedSplits,
			Joins:         rs.Joins,
			Leaves:        rs.Leaves,
			Partitions:    dpr.NumPartitions(),
			Fallbacks:     ts.LocalFallbacks,
		}, nil
	}

	var rows []SkewRow

	// Static: the design-time plan, fixed fleet.
	addrs, stopWorkers, err := startLoopbackWorkers(cfg.Workers)
	if err != nil {
		return nil, err
	}
	dpr, err := reasoner.NewDPR(rcfg, reasoner.NewPlanPartitioner(analysis.Plan), reasoner.DPROptions{
		Workers:          addrs,
		ProgramSource:    ProgramResidual,
		StragglerTimeout: 30 * time.Second,
	})
	if err != nil {
		stopWorkers()
		return nil, err
	}
	row, err := drive("DPR_static", dpr, -1, -1, "", "")
	dpr.Close()
	stopWorkers()
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)

	// Adaptive: same starting fleet plus one spare for the mid-run join;
	// one of the original workers leaves at two thirds.
	addrs, stopWorkers, err = startLoopbackWorkers(cfg.Workers + 1)
	if err != nil {
		return nil, err
	}
	dpr, err = reasoner.NewDPR(rcfg, reasoner.NewAdaptivePartitioner(analysis.Plan, keys, arities), reasoner.DPROptions{
		Workers:          addrs[:cfg.Workers],
		ProgramSource:    ProgramResidual,
		StragglerTimeout: 30 * time.Second,
		Rebalance: &reasoner.RebalanceOptions{
			SkewThreshold: 1.3,
			Sustain:       1,
			Cooldown:      1,
			MaxFanout:     cfg.MaxFanout,
		},
	})
	if err != nil {
		stopWorkers()
		return nil, err
	}
	row, err = drive("DPR_adaptive", dpr, len(emissions)/3, 2*len(emissions)/3, addrs[cfg.Workers], addrs[0])
	dpr.Close()
	stopWorkers()
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)
	return rows, nil
}
