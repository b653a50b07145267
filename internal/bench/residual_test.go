package bench

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"streamrule/internal/asp/ground"
	"streamrule/internal/asp/parser"
	"streamrule/internal/asp/solve"
	"streamrule/internal/dfp"
	"streamrule/internal/reasoner"
	"streamrule/internal/workload"
)

// residualGround grounds ProgramResidual over a ResidualTraffic window and
// returns the ground program the solver benchmarks re-solve.
func residualGround(tb testing.TB, size int) *ground.Program {
	tb.Helper()
	prog, err := parser.Parse(ProgramResidual)
	if err != nil {
		tb.Fatal(err)
	}
	inst, err := ground.NewInstantiator(prog, ground.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	ar, err := dfp.InferArities(prog, Inpre)
	if err != nil {
		tb.Fatal(err)
	}
	gen, err := workload.NewGenerator(int64(size), workload.ResidualTraffic())
	if err != nil {
		tb.Fatal(err)
	}
	ids, _ := dfp.InternFacts(inst.Table(), gen.Window(size), ar, nil)
	gp, err := inst.Ground(ids)
	if err != nil {
		tb.Fatal(err)
	}
	if len(gp.RuleIDs) == 0 {
		tb.Fatal("residual workload grounded away — nothing for the solver to do")
	}
	return gp
}

// TestResidualWorkloadShape pins the premises of the residual benchmarks:
// the workload leaves the solver a real residual program (hundreds of rules
// at w2k), the solver leaves the fast path, both propagation engines return
// the program's eight answer sets, and the counter engine visits at least 10x
// fewer rules than the rescan baseline while agreeing on every model.
func TestResidualWorkloadShape(t *testing.T) {
	gp := residualGround(t, 2000)
	if len(gp.RuleIDs) < 200 {
		t.Errorf("residual rules = %d, want a substantial program (>= 200)", len(gp.RuleIDs))
	}
	worklist, err := solve.Solve(gp, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := solve.Solve(gp, solve.Options{NaivePropagation: true})
	if err != nil {
		t.Fatal(err)
	}
	if worklist.Stats.FastPath || naive.Stats.FastPath {
		t.Fatal("residual program took the fast path")
	}
	if len(worklist.Models) != 8 || len(naive.Models) != 8 {
		t.Fatalf("models: worklist %d, naive %d, want 8 each", len(worklist.Models), len(naive.Models))
	}
	for i, m := range worklist.Models {
		found := false
		for _, n := range naive.Models {
			if m.Equal(n) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("worklist model %d not among naive models", i)
		}
	}
	if naive.Stats.RuleVisits < 10*worklist.Stats.RuleVisits {
		t.Errorf("rule visits: naive %d vs worklist %d — event-driven propagation should visit >= 10x fewer rules",
			naive.Stats.RuleVisits, worklist.Stats.RuleVisits)
	}
	if worklist.Stats.QueuePushes == 0 || worklist.Stats.SourceRepairs == 0 {
		t.Errorf("counter engine idle: pushes=%d repairs=%d", worklist.Stats.QueuePushes, worklist.Stats.SourceRepairs)
	}
}

// BenchmarkSolverResidual isolates the solver on the residual workload's
// ground programs: the same program is re-solved per iteration, comparing
// the counter/worklist engine against the NaivePropagation rescan baseline
// and the CDNL engine. "rule-visits" is the per-op propagation work; the
// ratio between worklist and naive is the headline of the event-driven
// rewrite. "stability-checks" is the reduct-test work CDNL's unfounded-set
// detection replaces.
func BenchmarkSolverResidual(b *testing.B) {
	for _, size := range []int{2000, 5000} {
		gp := residualGround(b, size)
		for _, variant := range []struct {
			name string
			opts solve.Options
		}{
			{"worklist", solve.Options{}},
			{"naive", solve.Options{NaivePropagation: true}},
			{"cdnl", solve.Options{CDNL: true}},
		} {
			b.Run(fmt.Sprintf("%s/w%dk", variant.name, size/1000), func(b *testing.B) {
				b.ReportAllocs()
				var visits, pushes, repairs, checks float64
				for i := 0; i < b.N; i++ {
					res, err := solve.Solve(gp, variant.opts)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Models) != 8 {
						b.Fatalf("models = %d", len(res.Models))
					}
					visits += float64(res.Stats.RuleVisits)
					pushes += float64(res.Stats.QueuePushes)
					repairs += float64(res.Stats.SourceRepairs)
					checks += float64(res.Stats.StabilityChecks)
				}
				b.ReportMetric(visits/float64(b.N), "rule-visits")
				b.ReportMetric(pushes/float64(b.N), "queue-pushes")
				b.ReportMetric(repairs/float64(b.N), "source-repairs")
				b.ReportMetric(checks/float64(b.N), "stability-checks")
			})
		}
	}
}

// TestCDNLSolverAcceptance pins the headline claim of the CDNL engine on
// the acceptance workload (residual ground program at w5k): CDNL returns
// exactly the models of the naive oracle with strictly fewer stability
// checks than the worklist engine. The best-of-5 solve times are logged,
// not asserted: a wall-clock verdict flips on a loaded two-core host.
func TestCDNLSolverAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("w5k residual solve: skipped in -short")
	}
	gp := residualGround(t, 5000)
	naive, err := solve.Solve(gp, solve.Options{NaivePropagation: true})
	if err != nil {
		t.Fatal(err)
	}
	best := func(opts solve.Options) (time.Duration, *solve.Result) {
		var bestD time.Duration
		var res *solve.Result
		for i := 0; i < 5; i++ {
			start := time.Now()
			r, err := solve.Solve(gp, opts)
			if err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); res == nil || d < bestD {
				bestD, res = d, r
			}
		}
		return bestD, res
	}
	wlD, wl := best(solve.Options{})
	cdnlD, cdnl := best(solve.Options{CDNL: true})

	if len(cdnl.Models) != len(naive.Models) {
		t.Fatalf("models: cdnl %d, naive %d", len(cdnl.Models), len(naive.Models))
	}
	for i, m := range cdnl.Models {
		found := false
		for _, n := range naive.Models {
			if m.Equal(n) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("cdnl model %d not among naive models", i)
		}
	}
	if cdnl.Stats.StabilityChecks >= wl.Stats.StabilityChecks {
		t.Errorf("stability checks: cdnl %d, worklist %d — unfounded-set detection should eliminate reduct tests",
			cdnl.Stats.StabilityChecks, wl.Stats.StabilityChecks)
	}
	t.Logf("w5k solve: cdnl %v (checks %d) vs worklist %v (checks %d), %d models",
		cdnlD, cdnl.Stats.StabilityChecks, wlD, wl.Stats.StabilityChecks, len(cdnl.Models))
}

// TestFig7ResidualAllocBudget fails when the Fig7Residual R path
// (reasoner.R over ProgramResidual x ResidualTraffic at w2k) allocates more
// than 10% above its committed allocs/op snapshot — the alloc-regression
// gate for each search engine, one snapshot per engine. Regenerate the
// snapshots (after an intended change) by running the test with
// UPDATE_RESIDUAL_BASELINE=1.
func TestFig7ResidualAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark: skipped in -short")
	}
	prog, err := parser.Parse(ProgramResidual)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(2000, workload.ResidualTraffic())
	if err != nil {
		t.Fatal(err)
	}
	window := gen.Window(2000)
	for _, eng := range []struct {
		name, baseline string
		opts           solve.Options
	}{
		{"worklist", "testdata/fig7residual_allocs.txt", solve.Options{}},
		{"cdnl", "testdata/fig7residual_cdnl_allocs.txt", solve.Options{CDNL: true}},
	} {
		t.Run(eng.name, func(t *testing.T) {
			r, err := reasoner.NewR(reasoner.Config{Program: prog, Inpre: Inpre, SolveOpts: eng.opts})
			if err != nil {
				t.Fatal(err)
			}
			// Warm the interning table and grounding scratch so the
			// measurement is the steady-state per-window cost.
			for i := 0; i < 2; i++ {
				if _, err := r.Process(window); err != nil {
					t.Fatal(err)
				}
			}
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := r.Process(window); err != nil {
						b.Fatal(err)
					}
				}
			})
			got := res.AllocsPerOp()

			if os.Getenv("UPDATE_RESIDUAL_BASELINE") != "" {
				if err := os.WriteFile(eng.baseline, []byte(fmt.Sprintf("%d\n", got)), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("baseline updated: %d allocs/op", got)
				return
			}
			raw, err := os.ReadFile(eng.baseline)
			if err != nil {
				t.Fatalf("missing baseline snapshot (run with UPDATE_RESIDUAL_BASELINE=1): %v", err)
			}
			baseline, err := strconv.ParseInt(strings.TrimSpace(string(raw)), 10, 64)
			if err != nil {
				t.Fatalf("corrupt baseline snapshot %q: %v", raw, err)
			}
			limit := baseline + baseline/10
			if got > limit {
				t.Errorf("Fig7Residual R/w2k (%s) allocates %d allocs/op, > committed baseline %d +10%% (%d)",
					eng.name, got, baseline, limit)
			}
			t.Logf("allocs/op: %d (baseline %d, limit %d)", got, baseline, limit)
		})
	}
}
