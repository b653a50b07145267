package reasoner

import (
	"math/rand"
	"slices"
	"testing"

	"streamrule/internal/asp/parser"
	"streamrule/internal/core"
	"streamrule/internal/dfp"
	"streamrule/internal/progen"
	"streamrule/internal/rdf"
)

// TestAssignLPT pins the greedy longest-processing-time packer: heavy items
// spread over bins, deterministic under ties, and never worse than the
// trivial all-in-one-bin layout.
func TestAssignLPT(t *testing.T) {
	assign := assignLPT([]float64{8, 1, 1, 1, 1, 4}, 2)
	if len(assign) != 6 {
		t.Fatalf("assign has %d entries, want 6", len(assign))
	}
	loads := make([]float64, 2)
	weights := []float64{8, 1, 1, 1, 1, 4}
	for p, b := range assign {
		if b < 0 || b > 1 {
			t.Fatalf("partition %d assigned to bin %d", p, b)
		}
		loads[b] += weights[p]
	}
	// LPT on {8,4,1,1,1,1} over 2 bins is exactly {8}, {4,1,1,1,1}.
	if max(loads[0], loads[1]) != 8 {
		t.Errorf("LPT packed to loads %v, want max 8", loads)
	}
	// Determinism: same input, same layout.
	again := assignLPT([]float64{8, 1, 1, 1, 1, 4}, 2)
	if !slices.Equal(assign, again) {
		t.Errorf("assignLPT is not deterministic: %v vs %v", assign, again)
	}
}

// TestElasticDifferential is the elastic-fleet acceptance differential: a
// DPR on the design-time plan must stay answer-identical to the in-process
// PR and the monolithic R on every window — through a worker join at one
// third of the stream, a worker leave at two thirds, and with entry- and
// byte-based memory budgets rotating worker tables underneath. The books
// must balance at the end: every partition window is accounted remote or
// fallback, exactly once.
func TestElasticDifferential(t *testing.T) {
	// Seeds match TestDifferentialDistributedVsLocal's validated set: PR's
	// community decomposition is the paper's approximation and is only
	// answer-exact on programs where no negation crosses a duplicated cut —
	// these generated programs are pinned by the main differential as exact,
	// so any divergence here is the join/leave re-layout's fault, not the
	// plan's.
	programs := []struct {
		name   string
		seed   int64
		cfg    progen.Config
		budget int
	}{
		{"flat", 900, progen.Config{Derived: 3}, 0},
		{"negation-heavy", 901, progen.Config{Derived: 5, UnaryInputs: 2, BinaryInputs: 2}, 0},
		{"recursive", 902, progen.Config{Derived: 3, Recursion: true, Consts: 4}, 0},
		{"flat-fresh-budgeted", 905, progen.Config{Derived: 3, Fresh: 0.6}, 96},
	}
	workers := startWorkers(t, 3)
	for _, pc := range programs {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(pc.seed))
			gp := progen.New(rnd, pc.cfg)
			prog, err := parser.Parse(gp.Src)
			if err != nil {
				t.Fatalf("generated program does not parse: %v\n%s", err, gp.Src)
			}
			cfg := Config{Program: prog, Inpre: gp.Inpre, Arities: dfp.Arities(gp.Arities)}
			var triples []rdf.Triple
			if pc.budget > 0 {
				seq := 0
				triples = gp.StreamFresh(rnd, pc.cfg, 160, &seq)
			} else {
				triples = gp.Stream(rnd, pc.cfg, 140)
			}
			analysis, err := core.Analyze(prog, gp.Inpre, 1.0)
			if err != nil {
				t.Skipf("program has no partitioning plan: %v", err)
			}
			emissions := emitWindows(triples, 20, 5)

			dprCfg := cfg
			dprCfg.MemoryBudget = pc.budget
			dpr, err := NewDPR(dprCfg, NewPlanPartitioner(analysis.Plan), testDPROptions(gp.Src, workers[:2]))
			if err != nil {
				t.Fatalf("NewDPR: %v", err)
			}
			defer dpr.Close()
			prOracle, err := NewPR(cfg, NewPlanPartitioner(analysis.Plan))
			if err != nil {
				t.Fatal(err)
			}
			rOracle, err := NewR(cfg)
			if err != nil {
				t.Fatal(err)
			}

			join, leave := len(emissions)/3, 2*len(emissions)/3
			var legs int64
			for wi, wd := range emissions {
				if wi == join {
					if err := dpr.AddWorker(workers[2]); err != nil {
						t.Fatalf("window %d: AddWorker: %v", wi, err)
					}
				}
				if wi == leave {
					if err := dpr.RemoveWorker(workers[0]); err != nil {
						t.Fatalf("window %d: RemoveWorker: %v", wi, err)
					}
				}
				legs += int64(dpr.NumPartitions())
				var d *Delta
				if wd.Incremental {
					d = &Delta{Added: wd.Added, Retracted: wd.Retracted}
				}
				got, err := dpr.ProcessDelta(wd.Window, d)
				if err != nil {
					t.Fatalf("window %d: DPR: %v", wi, err)
				}
				wantPR, err := prOracle.Process(wd.Window)
				if err != nil {
					t.Fatalf("window %d: PR oracle: %v", wi, err)
				}
				wantR, err := rOracle.Process(wd.Window)
				if err != nil {
					t.Fatalf("window %d: R oracle: %v", wi, err)
				}
				gs := answerKeySigs(got.Answers)
				for _, ref := range []struct {
					name string
					sigs []string
				}{
					{"PR", answerKeySigs(wantPR.Answers)},
					{"R", answerKeySigs(wantR.Answers)},
				} {
					if !slices.Equal(gs, ref.sigs) {
						t.Fatalf("window %d: DPR diverges from %s (fleet %v)\nDPR: %v\n%s: %v",
							wi, ref.name, dpr.Workers(), gs, ref.name, ref.sigs)
					}
				}
				if loads := dpr.PartitionLoads(); len(loads) != dpr.NumPartitions() {
					t.Fatalf("window %d: %d load rows for %d partitions", wi, len(loads), dpr.NumPartitions())
				}
			}

			ts := dpr.TransportStats()
			if got := ts.RemoteWindows + ts.LocalFallbacks; got != legs {
				t.Errorf("books don't balance: remote %d + fallback %d = %d, want %d partition windows",
					ts.RemoteWindows, ts.LocalFallbacks, got, legs)
			}
			if ts.LocalFallbacks > 0 {
				t.Errorf("%d local fallbacks with healthy workers", ts.LocalFallbacks)
			}
			if got := dpr.Workers(); len(got) != 2 || slices.Contains(got, workers[0]) {
				t.Errorf("fleet after join+leave = %v, want 2 workers without %s", got, workers[0])
			}
		})
	}
}
