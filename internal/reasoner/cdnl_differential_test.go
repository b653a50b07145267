package reasoner

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"streamrule/internal/asp/intern"
	"streamrule/internal/asp/parser"
	"streamrule/internal/asp/solve"
	"streamrule/internal/core"
	"streamrule/internal/dfp"
	"streamrule/internal/progen"
	"streamrule/internal/rdf"
	"streamrule/internal/stream"
)

// cdnlCadence is a rotation schedule applied to the CDNL reasoner only: the
// oracles never rotate, so the comparison also pins that renumbered atom IDs
// cannot change a CDNL answer.
type cdnlCadence struct {
	name   string
	budget int // tight entry budget: rotates on most windows
	every  int // manual Rotate cadence (0 = none)
}

// requireRotated fails a budgeted cadence whose CDNL reasoner never rotated
// its table, so the rotation half of the gate cannot pass vacuously.
func requireRotated(t *testing.T, label string, cad cdnlCadence, st MemoryStats) {
	t.Helper()
	if cad.budget > 0 && st.Table.Rotations == 0 {
		t.Errorf("%s: budget of %d atoms never rotated the CDNL table", label, cad.budget)
	}
}

// stepCDNLDifferential runs one window through the CDNL engine and the two
// oracle engines and cross-checks the answers (as sorted multisets of
// table-independent keys — the engines sit on different interning tables once
// rotation is in play) and the oracle invariant that the worklist and naive
// engines agree exactly on stability-check counts. The CDNL engine is
// deliberately exempt from that last equality: skipping stability checks on
// non-disjunctive candidates is its contract, not a divergence.
func stepCDNLDifferential(t *testing.T, label string, wi int, wd stream.WindowDelta, cdnlR, wlR, nvR incrementalProcessor) *Output {
	t.Helper()
	var d *Delta
	if wd.Incremental {
		d = &Delta{Added: wd.Added, Retracted: wd.Retracted}
	}
	got, err := cdnlR.ProcessDelta(wd.Window, d)
	if err != nil {
		t.Fatalf("%s window %d: CDNL: %v", label, wi, err)
	}
	wantWL, err := wlR.ProcessDelta(wd.Window, d)
	if err != nil {
		t.Fatalf("%s window %d: worklist: %v", label, wi, err)
	}
	wantNV, err := nvR.ProcessDelta(wd.Window, d)
	if err != nil {
		t.Fatalf("%s window %d: naive: %v", label, wi, err)
	}
	if len(got.Answers) != len(wantWL.Answers) || len(wantWL.Answers) != len(wantNV.Answers) {
		t.Fatalf("%s window %d: answer counts diverge: CDNL %d, worklist %d, naive %d",
			label, wi, len(got.Answers), len(wantWL.Answers), len(wantNV.Answers))
	}
	gs, ws, ns := answerKeySigs(got.Answers), answerKeySigs(wantWL.Answers), answerKeySigs(wantNV.Answers)
	if !slices.Equal(ws, ns) {
		t.Fatalf("%s window %d: oracles diverge from each other\nworklist: %v\nnaive:    %v", label, wi, ws, ns)
	}
	if !slices.Equal(gs, ws) {
		t.Fatalf("%s window %d: CDNL diverges from the oracles\nCDNL:     %v\nworklist: %v", label, wi, gs, ws)
	}
	if wantWL.SolveStats.StabilityChecks != wantNV.SolveStats.StabilityChecks {
		t.Fatalf("%s window %d: oracle stability checks diverge: worklist %d, naive %d",
			label, wi, wantWL.SolveStats.StabilityChecks, wantNV.SolveStats.StabilityChecks)
	}
	return got
}

// TestSolverDifferentialCDNL is the three-way acceptance gate of the
// conflict-driven engine: on randomized programs covering every rule class ×
// window shapes × rotation cadences, CDNL must enumerate exactly the answer
// sets of BOTH pre-existing engines, through R, PR, and (below) DPR.
// Rotation cadences apply to the CDNL reasoner alone, so they are pinned
// against never-rotating oracles.
func TestSolverDifferentialCDNL(t *testing.T) {
	classes := []struct {
		name string
		cfg  progen.Config
		pr   bool
	}{
		{"stratified", progen.Config{}, false},
		{"recursive", progen.Config{Recursion: true}, false},
		{"constraints", progen.Config{Constraints: true}, false},
		{"choice-or-loop", progen.Config{Ineligible: true}, false},
		{"disjunctive", progen.Config{Disjunctive: true}, false},
		// Residual classes run PR too: exactly 2 answer sets per partition by
		// construction, so the combiner's cross-product cap cannot truncate
		// (see TestSolverDifferentialWorklistVsNaive).
		{"residual", progen.Config{Residual: true}, true},
		{"residual-recursive", progen.Config{Residual: true, Recursion: true}, true},
	}
	type winCfg struct{ size, step int }
	windows := []winCfg{
		{60, 20}, // sliding, 3x overlap
		{80, 80}, // tumbling: windows share no facts
		{50, 10}, // sliding, 5x overlap
	}
	cadences := []cdnlCadence{
		{name: "no-rotation"},
		{name: "entries-tight", budget: 44},
		{name: "manual-every-3", every: 3},
	}
	var cdnlTotals solve.Stats
	for _, class := range classes {
		for seed := int64(0); seed < 2; seed++ {
			rnd := rand.New(rand.NewSource(seed*137 + 11))
			p := progen.New(rnd, class.cfg)
			prog, err := parser.Parse(p.Src)
			if err != nil {
				t.Fatalf("%s seed %d: parse: %v\n%s", class.name, seed, err, p.Src)
			}
			baseCfg := Config{Program: prog, Inpre: p.Inpre, Arities: p.Arities}
			naiveCfg := baseCfg
			naiveCfg.SolveOpts.NaivePropagation = true

			for wi, wc := range windows {
				// Cycle cadences across (seed, shape) instead of multiplying
				// the matrix: every cadence still meets every class.
				cad := cadences[(int(seed)+wi)%len(cadences)]
				label := fmt.Sprintf("%s seed %d w%d/s%d %s", class.name, seed, wc.size, wc.step, cad.name)
				stream := p.Stream(rnd, class.cfg, wc.size+3*wc.step)
				emissions := emitWindows(stream, wc.size, wc.step)

				cdnlCfg := baseCfg
				cdnlCfg.SolveOpts.CDNL = true
				cdnlCfg.MemoryBudget = cad.budget
				if cad.every > 0 {
					// Manual rotation needs a private table.
					cdnlCfg.GroundOpts.Intern = intern.NewTable()
				}

				cdnlR, err := NewR(cdnlCfg)
				if err != nil {
					t.Fatal(err)
				}
				wlR, err := NewR(baseCfg)
				if err != nil {
					t.Fatal(err)
				}
				nvR, err := NewR(naiveCfg)
				if err != nil {
					t.Fatal(err)
				}
				for wi, wd := range emissions {
					out := stepCDNLDifferential(t, "R "+label, wi, wd, cdnlR, wlR, nvR)
					cdnlTotals.Add(out.SolveStats)
					if cad.every > 0 && (wi+1)%cad.every == 0 {
						if err := cdnlR.Rotate(); err != nil {
							t.Fatalf("%s window %d: rotate: %v", label, wi, err)
						}
					}
				}
				requireRotated(t, "R "+label, cad, cdnlR.Stats())

				if !class.pr {
					continue
				}
				cdnlPR, err := NewPR(cdnlCfg, NewRandomPartitioner(3, seed))
				if err != nil {
					t.Fatal(err)
				}
				wlPR, err := NewPR(baseCfg, NewRandomPartitioner(3, seed))
				if err != nil {
					t.Fatal(err)
				}
				nvPR, err := NewPR(naiveCfg, NewRandomPartitioner(3, seed))
				if err != nil {
					t.Fatal(err)
				}
				for wi, wd := range emissions {
					out := stepCDNLDifferential(t, "PR "+label, wi, wd, cdnlPR, wlPR, nvPR)
					cdnlTotals.Add(out.SolveStats)
					if cad.every > 0 && (wi+1)%cad.every == 0 {
						if err := cdnlPR.Rotate(); err != nil {
							t.Fatalf("%s window %d: PR rotate: %v", label, wi, err)
						}
					}
				}
				requireRotated(t, "PR "+label, cad, cdnlPR.Stats())
			}
		}
	}
	// The progen classes exercise search but propagate to their answers
	// without conflicting, so the conflict half of the gate runs on a
	// crafted class too.
	baseCfg := craftedCDNLConfig(t)
	naiveCfg := baseCfg
	naiveCfg.SolveOpts.NaivePropagation = true
	triples := craftedCDNLStream()
	for _, cad := range cadences {
		label := fmt.Sprintf("crafted w60/s20 %s", cad.name)
		emissions := emitWindows(triples, 60, 20)
		cdnlCfg := baseCfg
		cdnlCfg.SolveOpts.CDNL = true
		cdnlCfg.MemoryBudget = cad.budget
		if cad.every > 0 {
			cdnlCfg.GroundOpts.Intern = intern.NewTable()
		}
		cdnlR, err := NewR(cdnlCfg)
		if err != nil {
			t.Fatal(err)
		}
		wlR, err := NewR(baseCfg)
		if err != nil {
			t.Fatal(err)
		}
		nvR, err := NewR(naiveCfg)
		if err != nil {
			t.Fatal(err)
		}
		for wi, wd := range emissions {
			out := stepCDNLDifferential(t, "R "+label, wi, wd, cdnlR, wlR, nvR)
			cdnlTotals.Add(out.SolveStats)
			if cad.every > 0 && (wi+1)%cad.every == 0 {
				if err := cdnlR.Rotate(); err != nil {
					t.Fatalf("%s window %d: rotate: %v", label, wi, err)
				}
			}
		}
		requireRotated(t, "R "+label, cad, cdnlR.Stats())
		cdnlPR, err := NewPR(cdnlCfg, NewRandomPartitioner(3, 1))
		if err != nil {
			t.Fatal(err)
		}
		wlPR, err := NewPR(baseCfg, NewRandomPartitioner(3, 1))
		if err != nil {
			t.Fatal(err)
		}
		nvPR, err := NewPR(naiveCfg, NewRandomPartitioner(3, 1))
		if err != nil {
			t.Fatal(err)
		}
		for wi, wd := range emissions {
			out := stepCDNLDifferential(t, "PR "+label, wi, wd, cdnlPR, wlPR, nvPR)
			cdnlTotals.Add(out.SolveStats)
		}
		requireRotated(t, "PR "+label, cad, cdnlPR.Stats())
	}

	// The gate must not pass vacuously: across the matrix the CDNL engine has
	// to have actually searched (residual windows) and learned from
	// conflicts.
	if cdnlTotals.Choices == 0 {
		t.Error("CDNL engine never made a branching decision across the whole matrix")
	}
	if cdnlTotals.Learned == 0 {
		t.Error("CDNL engine never learned a clause across the whole matrix")
	}
}

// craftedCDNLConfig is the conflict-heavy program of the CDNL gates: the
// a-branch fails through x(X) in every window that holds an e fact, so every
// such window learns clauses.
func craftedCDNLConfig(t *testing.T) Config {
	t.Helper()
	prog, err := parser.Parse(`
a :- not b.
b :- not a.
x(X) :- e(X,Y), a.
:- x(X), a.
`)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Program: prog, Inpre: []string{"e"}, Arities: dfp.Arities{"e": 2}}
}

// craftedCDNLStream is the fixed e-fact stream the crafted program runs on.
func craftedCDNLStream() []rdf.Triple {
	rnd := rand.New(rand.NewSource(71))
	var triples []rdf.Triple
	for i := 0; i < 200; i++ {
		triples = append(triples, rdf.Triple{
			S: fmt.Sprintf("s%d", rnd.Intn(8)), P: "e", O: fmt.Sprint(rnd.Intn(5)),
		})
	}
	return triples
}

// TestSolverDifferentialCDNLPerWindow pins that no solver state crosses
// windows: on overlapping sliding windows of the crafted program, every
// window a long-lived CDNL R solves has the answers and the exact SolveStats
// of a fresh CDNL R solving that window alone.
func TestSolverDifferentialCDNLPerWindow(t *testing.T) {
	cfg := craftedCDNLConfig(t)
	cfg.SolveOpts.CDNL = true
	emissions := emitWindows(craftedCDNLStream(), 60, 20)
	if len(emissions) < 6 {
		t.Fatalf("need at least 6 windows, got %d", len(emissions))
	}
	r, err := NewR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var learned int
	for wi, wd := range emissions {
		var d *Delta
		if wd.Incremental {
			d = &Delta{Added: wd.Added, Retracted: wd.Retracted}
		}
		got, err := r.ProcessDelta(wd.Window, d)
		if err != nil {
			t.Fatalf("window %d: %v", wi, err)
		}
		fresh, err := NewR(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Process(wd.Window)
		if err != nil {
			t.Fatalf("window %d: fresh: %v", wi, err)
		}
		if gs, ws := answerKeySigs(got.Answers), answerKeySigs(want.Answers); !slices.Equal(gs, ws) {
			t.Fatalf("window %d: answers diverge\nlong-lived: %v\nfresh:      %v", wi, gs, ws)
		}
		if got.SolveStats != want.SolveStats {
			t.Errorf("window %d: solver stats diverge\nlong-lived: %+v\nfresh:      %+v", wi, got.SolveStats, want.SolveStats)
		}
		learned += got.SolveStats.Learned
	}
	if learned == 0 {
		t.Error("no window learned a clause; the crafted program no longer conflicts")
	}
}

// TestSolverDifferentialCDNLDistributed extends the three-way gate to DPR:
// a distributed CDNL reasoner over 2 loopback workers — with budget-driven
// worker-table rotation in the fresh-constant variant — against the
// in-process worklist PR and naive R oracles.
func TestSolverDifferentialCDNLDistributed(t *testing.T) {
	programs := []struct {
		name   string
		cfg    progen.Config
		budget int
	}{
		{"residual", progen.Config{Residual: true}, 0},
		{"residual-recursive", progen.Config{Residual: true, Recursion: true}, 0},
		{"flat-fresh-budgeted", progen.Config{Derived: 3, Fresh: 0.6}, 96},
	}
	workers := startWorkers(t, 2)
	for pi, pc := range programs {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(int64(1700 + pi)))
			p := progen.New(rnd, pc.cfg)
			prog, err := parser.Parse(p.Src)
			if err != nil {
				t.Fatalf("parse: %v\n%s", err, p.Src)
			}
			cfg := Config{Program: prog, Inpre: p.Inpre, Arities: dfp.Arities(p.Arities)}
			var emissions []stream.WindowDelta
			if pc.budget > 0 {
				seq := 0
				emissions = emitWindows(p.StreamFresh(rnd, pc.cfg, 160, &seq), 20, 5)
			} else {
				emissions = emitWindows(p.Stream(rnd, pc.cfg, 140), 20, 5)
			}

			// Partitioning itself changes the combined answers of residual
			// programs (the combiner crosses per-partition model sets), so
			// all three engines must share one partitioning scheme.
			mkPart := func() Partitioner { return NewRandomPartitioner(2, int64(pi)) }
			if analysis, err := core.Analyze(prog, p.Inpre, 1.0); err == nil {
				mkPart = func() Partitioner { return NewPlanPartitioner(analysis.Plan) }
			}
			cdnlCfg := cfg
			cdnlCfg.SolveOpts.CDNL = true
			cdnlCfg.MemoryBudget = pc.budget
			dpr, err := NewDPR(cdnlCfg, mkPart(), testDPROptions(p.Src, workers))
			if err != nil {
				t.Fatalf("NewDPR: %v", err)
			}
			defer dpr.Close()
			wlPR, err := NewPR(cfg, mkPart())
			if err != nil {
				t.Fatal(err)
			}
			naiveCfg := cfg
			naiveCfg.SolveOpts.NaivePropagation = true
			nvPR, err := NewPR(naiveCfg, mkPart())
			if err != nil {
				t.Fatal(err)
			}
			for wi, wd := range emissions {
				var d *Delta
				if wd.Incremental {
					d = &Delta{Added: wd.Added, Retracted: wd.Retracted}
				}
				got, err := dpr.ProcessDelta(wd.Window, d)
				if err != nil {
					t.Fatalf("window %d: DPR: %v", wi, err)
				}
				wantPR, err := wlPR.Process(wd.Window)
				if err != nil {
					t.Fatalf("window %d: PR oracle: %v", wi, err)
				}
				wantNV, err := nvPR.Process(wd.Window)
				if err != nil {
					t.Fatalf("window %d: naive oracle: %v", wi, err)
				}
				gs, ps, rs := answerKeySigs(got.Answers), answerKeySigs(wantPR.Answers), answerKeySigs(wantNV.Answers)
				if !slices.Equal(ps, rs) {
					t.Fatalf("window %d: oracles diverge\nPR:    %v\nnaive: %v", wi, ps, rs)
				}
				if !slices.Equal(gs, ps) {
					t.Fatalf("window %d: CDNL DPR diverges from the oracles\nDPR:    %v\noracle: %v", wi, gs, ps)
				}
			}
			ts := dpr.TransportStats()
			if ts.RemoteWindows == 0 {
				t.Error("the distributed CDNL path was never exercised")
			}
			if pc.budget > 0 && ts.WorkerRotations == 0 {
				t.Errorf("fresh-constant stream with budget %d never rotated a worker table", pc.budget)
			}
		})
	}
}
