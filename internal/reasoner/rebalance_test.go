package reasoner

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"streamrule/internal/asp/parser"
	"streamrule/internal/atomdep"
	"streamrule/internal/core"
	"streamrule/internal/dfp"
	"streamrule/internal/progen"
	"streamrule/internal/rdf"
	"streamrule/internal/workload"
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

// TestAdaptivePartitionerFanout pins the fan-out bookkeeping of the runtime
// partitioner: widening a splittable community multiplies partitions,
// CommunityOf inverts the global index, and unsplittable communities refuse.
func TestAdaptivePartitionerFanout(t *testing.T) {
	src := `
very_slow_speed(X) :- average_speed(X,Y), Y < 20.
many_cars(X) :- car_number(X,Y), Y > 40.
traffic_jam(X) :- very_slow_speed(X), many_cars(X), not traffic_light(X).
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	inpre := []string{"average_speed", "car_number", "traffic_light"}
	an, err := core.Analyze(prog, inpre, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	arities, err := dfp.InferArities(prog, inpre)
	if err != nil {
		t.Fatal(err)
	}
	keys := atomdep.Analyze(prog, an.Plan)
	ap := NewAdaptivePartitioner(an.Plan, keys, arities)
	base := ap.NumPartitions()
	if base != an.Plan.NumPartitions() {
		t.Fatalf("fresh partitioner has %d partitions, plan has %d", base, an.Plan.NumPartitions())
	}
	split := -1
	for c := 0; c < ap.NumCommunities(); c++ {
		if ap.Splittable(c) {
			split = c
			break
		}
	}
	if split < 0 {
		t.Fatal("single-key program has no splittable community")
	}
	if err := ap.SetFanout(split, 3); err != nil {
		t.Fatalf("SetFanout: %v", err)
	}
	if got := ap.NumPartitions(); got != base+2 {
		t.Errorf("fan-out 3 on one community: %d partitions, want %d", got, base+2)
	}
	for gp := 0; gp < ap.NumPartitions(); gp++ {
		if c := ap.CommunityOf(gp); c < 0 || c >= ap.NumCommunities() {
			t.Errorf("CommunityOf(%d) = %d, out of range", gp, c)
		}
	}
}

// TestAdaptiveDifferentialVsStatic is the adaptive acceptance differential:
// an adaptive DPR with aggressive rebalancing (threshold barely above 1,
// no sustain, every window eligible) must stay answer-identical to a static
// DPR, the in-process PR, and the monolithic R on every window — through
// layout migrations, a worker join at one third of the stream, a worker
// leave at two thirds, and with entry- and byte-based memory budgets
// rotating worker tables underneath. The books must balance at the end:
// every partition window is accounted remote or fallback, exactly once.
func TestAdaptiveDifferentialVsStatic(t *testing.T) {
	// Seeds match TestDifferentialDistributedVsLocal's validated set: PR's
	// community decomposition is the paper's approximation and is only
	// answer-exact on programs where no negation crosses a duplicated cut —
	// these generated programs are pinned by the main differential as exact,
	// so any divergence here is the adaptive machinery's fault, not the
	// plan's.
	programs := []struct {
		name        string
		seed        int64
		cfg         progen.Config
		budget      int
		budgetBytes int64
	}{
		{"flat", 900, progen.Config{Derived: 3}, 0, 0},
		{"negation-heavy", 901, progen.Config{Derived: 5, UnaryInputs: 2, BinaryInputs: 2}, 0, 0},
		{"recursive", 902, progen.Config{Derived: 3, Recursion: true, Consts: 4}, 0, 0},
		{"flat-fresh-budgeted", 905, progen.Config{Derived: 3, Fresh: 0.6}, 96, 0},
		{"flat-fresh-byte-budgeted", 905, progen.Config{Derived: 3, Fresh: 0.6}, 0, 48 << 10},
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
			if pc.budget > 0 || pc.budgetBytes > 0 {
				seq := 0
				triples = gp.StreamFresh(rnd, pc.cfg, 160, &seq)
			} else {
				triples = gp.Stream(rnd, pc.cfg, 140)
			}
			analysis, err := core.Analyze(prog, gp.Inpre, 1.0)
			if err != nil {
				t.Skipf("program has no partitioning plan: %v", err)
			}
			keys := atomdep.Analyze(prog, analysis.Plan)
			emissions := emitWindows(triples, 20, 5)

			dprCfg := cfg
			dprCfg.MemoryBudget = pc.budget
			dprCfg.MemoryBudgetBytes = pc.budgetBytes
			adOpts := testDPROptions(gp.Src, workers[:2])
			adOpts.Rebalance = &RebalanceOptions{SkewThreshold: 1.05, Sustain: 1, Cooldown: 1}
			adaptive, err := NewDPR(dprCfg, NewAdaptivePartitioner(analysis.Plan, keys, dfp.Arities(gp.Arities)), adOpts)
			if err != nil {
				t.Fatalf("NewDPR(adaptive): %v", err)
			}
			defer adaptive.Close()
			static, err := NewDPR(dprCfg, NewPlanPartitioner(analysis.Plan), testDPROptions(gp.Src, workers[:2]))
			if err != nil {
				t.Fatalf("NewDPR(static): %v", err)
			}
			defer static.Close()
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
					if err := adaptive.AddWorker(workers[2]); err != nil {
						t.Fatalf("window %d: AddWorker: %v", wi, err)
					}
				}
				if wi == leave {
					if err := adaptive.RemoveWorker(workers[0]); err != nil {
						t.Fatalf("window %d: RemoveWorker: %v", wi, err)
					}
				}
				legs += int64(adaptive.NumPartitions())
				var d *Delta
				if wd.Incremental {
					d = &Delta{Added: wd.Added, Retracted: wd.Retracted}
				}
				got, err := adaptive.ProcessDelta(wd.Window, d)
				if err != nil {
					t.Fatalf("window %d: adaptive DPR: %v", wi, err)
				}
				wantStatic, err := static.ProcessDelta(wd.Window, d)
				if err != nil {
					t.Fatalf("window %d: static DPR: %v", wi, err)
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
					{"static DPR", answerKeySigs(wantStatic.Answers)},
					{"PR", answerKeySigs(wantPR.Answers)},
					{"R", answerKeySigs(wantR.Answers)},
				} {
					if !slices.Equal(gs, ref.sigs) {
						t.Fatalf("window %d: adaptive DPR diverges from %s (rebalance: %+v)\nadaptive: %v\n%s: %v",
							wi, ref.name, adaptive.RebalanceStats(), gs, ref.name, ref.sigs)
					}
				}
			}

			ts := adaptive.TransportStats()
			if got := ts.RemoteWindows + ts.LocalFallbacks; got != legs {
				t.Errorf("books don't balance: remote %d + fallback %d = %d, want %d partition windows",
					ts.RemoteWindows, ts.LocalFallbacks, got, legs)
			}
			if ts.LocalFallbacks > 0 {
				t.Errorf("%d local fallbacks with healthy workers", ts.LocalFallbacks)
			}
			rs := adaptive.RebalanceStats()
			if rs.Observations == 0 {
				t.Error("rebalancer never observed a window")
			}
			if rs.Joins != 1 || rs.Leaves != 1 {
				t.Errorf("join/leave counters = %d/%d, want 1/1", rs.Joins, rs.Leaves)
			}
			if got := adaptive.Workers(); len(got) != 2 || slices.Contains(got, workers[0]) {
				t.Errorf("fleet after join+leave = %v, want 2 workers without %s", got, workers[0])
			}
		})
	}
}

// skewResidualSrc is a two-community paper-shaped program: the city cluster
// (traffic_jam) and the car cluster (car_fire) share no input predicate, so
// the design-time plan has one partition per cluster — and the car-heavy
// ResidualTraffic skew lands ~80% of every window on one of them.
const skewResidualSrc = `
very_slow_speed(X) :- average_speed(X,Y), Y < 20.
many_cars(X) :- car_number(X,Y), Y > 40.
traffic_jam(X) :- very_slow_speed(X), many_cars(X), not traffic_light(X).
car_stopped(C) :- car_speed(C,S), S < 1.
car_fire(C) :- car_in_smoke(C,high), car_stopped(C), car_location(C,L).
give_notification(X) :- traffic_jam(X).
give_notification(X) :- car_fire(X).
`

var skewResidualInpre = []string{
	"average_speed", "car_number", "traffic_light",
	"car_in_smoke", "car_speed", "car_location",
}

// TestAdaptiveSplitsSkewedResidual drives the adaptive DPR over the canned
// skewed+bursty stream: sustained skew must trigger at least one accepted
// community split (migrating work between sessions), the partition count
// must grow past the design-time plan, and every window's answers must stay
// identical to the monolithic R — migrations never drop a window.
func TestAdaptiveSplitsSkewedResidual(t *testing.T) {
	prog, err := parser.Parse(skewResidualSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Program: prog, Inpre: skewResidualInpre,
		OutputPreds: []string{"traffic_jam", "car_fire", "give_notification"}}
	an, err := core.Analyze(prog, skewResidualInpre, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if an.Plan.NumPartitions() < 2 {
		t.Fatalf("fixture plan has %d partitions, want >= 2", an.Plan.NumPartitions())
	}
	arities, err := dfp.InferArities(prog, skewResidualInpre)
	if err != nil {
		t.Fatal(err)
	}
	keys := atomdep.Analyze(prog, an.Plan)

	triples, err := workload.SkewedBurstyStream(11, 2400)
	if err != nil {
		t.Fatal(err)
	}
	emissions := emitWindows(triples, 200, 200)

	workers := startWorkers(t, 4)
	opts := testDPROptions(skewResidualSrc, workers)
	opts.Rebalance = &RebalanceOptions{SkewThreshold: 1.2, Sustain: 1, Cooldown: 1, MaxFanout: 4}
	dpr, err := NewDPR(cfg, NewAdaptivePartitioner(an.Plan, keys, arities), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer dpr.Close()
	rOracle, err := NewR(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var legs int64
	for wi, wd := range emissions {
		nparts := dpr.NumPartitions()
		legs += int64(nparts)
		var d *Delta
		if wd.Incremental {
			d = &Delta{Added: wd.Added, Retracted: wd.Retracted}
		}
		got, err := dpr.ProcessDelta(wd.Window, d)
		if err != nil {
			t.Fatalf("window %d: DPR: %v", wi, err)
		}
		want, err := rOracle.Process(wd.Window)
		if err != nil {
			t.Fatalf("window %d: oracle: %v", wi, err)
		}
		if gs, ws := answerKeySigs(got.Answers), answerKeySigs(want.Answers); !slices.Equal(gs, ws) {
			t.Fatalf("window %d: answers diverge after %d splits\nDPR:    %v\noracle: %v",
				wi, dpr.RebalanceStats().Splits, gs, ws)
		}
		// A post-window rebalance may already have changed the layout, so
		// the load rows match the partition count the window ran under.
		if loads := dpr.PartitionLoads(); len(loads) != nparts {
			t.Fatalf("window %d: %d load rows for %d partitions", wi, len(loads), nparts)
		}
	}

	rs := dpr.RebalanceStats()
	if rs.Splits < 1 {
		t.Errorf("sustained 80/20 skew never triggered a community split: %+v", rs)
	}
	if got := dpr.NumPartitions(); got <= an.Plan.NumPartitions() {
		t.Errorf("partition count %d did not grow past the design-time plan's %d", got, an.Plan.NumPartitions())
	}
	ts := dpr.TransportStats()
	if got := ts.RemoteWindows + ts.LocalFallbacks; got != legs {
		t.Errorf("books don't balance across migrations: remote %d + fallback %d = %d, want %d",
			ts.RemoteWindows, ts.LocalFallbacks, got, legs)
	}
	if ts.LocalFallbacks > 0 {
		t.Errorf("%d local fallbacks with healthy workers", ts.LocalFallbacks)
	}
}

// TestAdaptiveRefusesUnprofitableSplit pins the duplication cost model: a
// community whose rules join on no single key cannot be hash-split, so
// sustained skew must produce refusals or inaction, never a layout change that would replicate traffic without
// a projected gain.
func TestAdaptiveRefusesUnprofitableSplit(t *testing.T) {
	// Joining car_pair on BOTH arguments leaves no single partition key, so
	// atomdep proves nothing and the community is unsplittable.
	src := `
linked(X,Y) :- car_pair(X,Y), car_pair(Y,X).
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	inpre := []string{"car_pair"}
	an, err := core.Analyze(prog, inpre, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	arities, err := dfp.InferArities(prog, inpre)
	if err != nil {
		t.Fatal(err)
	}
	keys := atomdep.Analyze(prog, an.Plan)
	cfg := Config{Program: prog, Inpre: inpre, OutputPreds: []string{"linked"}}

	workers := startWorkers(t, 2)
	opts := testDPROptions(src, workers)
	opts.Rebalance = &RebalanceOptions{SkewThreshold: 1.01, Sustain: 1, Cooldown: 1}
	dpr, err := NewDPR(cfg, NewAdaptivePartitioner(an.Plan, keys, arities), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer dpr.Close()
	rOracle, err := NewR(cfg)
	if err != nil {
		t.Fatal(err)
	}

	rnd := rand.New(rand.NewSource(7))
	for wi := 0; wi < 8; wi++ {
		var window []rdf.Triple
		for i := 0; i < 40; i++ {
			a, b := rnd.Intn(6), rnd.Intn(6)
			window = append(window, rdf.Triple{S: fmt.Sprintf("c%d", a), P: "car_pair", O: fmt.Sprintf("c%d", b)})
		}
		got, err := dpr.Process(window)
		if err != nil {
			t.Fatalf("window %d: %v", wi, err)
		}
		want, err := rOracle.Process(window)
		if err != nil {
			t.Fatal(err)
		}
		if gs, ws := answerKeySigs(got.Answers), answerKeySigs(want.Answers); !slices.Equal(gs, ws) {
			t.Fatalf("window %d: answers diverge\nDPR:    %v\noracle: %v", wi, gs, ws)
		}
	}
	rs := dpr.RebalanceStats()
	if rs.Splits != 0 {
		t.Errorf("unsplittable community was split anyway: %+v", rs)
	}
	if dpr.NumPartitions() != an.Plan.NumPartitions() {
		t.Errorf("partition count changed from %d to %d with nothing to split",
			an.Plan.NumPartitions(), dpr.NumPartitions())
	}
}
