package reasoner

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"streamrule/internal/asp/parser"
	"streamrule/internal/asp/solve"
	"streamrule/internal/core"
	"streamrule/internal/dfp"
	"streamrule/internal/progen"
	"streamrule/internal/rdf"
	"streamrule/internal/stream"
)

// answerSigs renders answer sets as comparable signatures (interned IDs are
// shared through the process-wide table, so identical answers have identical
// signatures regardless of which reasoner produced them).
func answerSigs(answers []*solve.AnswerSet) []string {
	sigs := make([]string, len(answers))
	for i, a := range answers {
		sigs[i] = fmt.Sprint(a.IDs())
	}
	slices.Sort(sigs)
	return sigs
}

// emitWindows replays a triple stream through a sliding count window and
// collects every emission (including the final flush, as a non-incremental
// window), so several systems can process the identical window sequence.
func emitWindows(triples []rdf.Triple, size, step int) []stream.WindowDelta {
	w := &stream.SlidingCountWindow{Size: size, Step: step}
	var out []stream.WindowDelta
	for _, tr := range triples {
		if wd := w.AddDelta(stream.Item{Triple: tr}); wd != nil {
			out = append(out, *wd)
		}
	}
	if rest := w.Flush(); len(rest) > 0 {
		out = append(out, stream.WindowDelta{Window: rest, Added: rest})
	}
	return out
}

// incrementalProcessor adapts R and PR to one delta-aware surface.
type incrementalProcessor interface {
	ProcessDelta(window []rdf.Triple, d *Delta) (*Output, error)
}

type scratchProcessor interface {
	Process(window []rdf.Triple) (*Output, error)
}

// runDifferential feeds the emission sequence to an incremental system and a
// from-scratch oracle of the same construction, asserting set-identical
// answers on every window. It returns how many windows the incremental
// system actually processed incrementally.
func runDifferential(t *testing.T, label string, inc incrementalProcessor, oracle scratchProcessor, emissions []stream.WindowDelta) int {
	t.Helper()
	incremental := 0
	for wi, wd := range emissions {
		var d *Delta
		if wd.Incremental {
			d = &Delta{Added: wd.Added, Retracted: wd.Retracted}
		}
		got, err := inc.ProcessDelta(wd.Window, d)
		if err != nil {
			t.Fatalf("%s window %d: incremental: %v", label, wi, err)
		}
		want, err := oracle.Process(wd.Window)
		if err != nil {
			t.Fatalf("%s window %d: oracle: %v", label, wi, err)
		}
		if got.Skipped != want.Skipped {
			t.Fatalf("%s window %d: skipped = %d, oracle %d", label, wi, got.Skipped, want.Skipped)
		}
		gs, ws := answerSigs(got.Answers), answerSigs(want.Answers)
		if !slices.Equal(gs, ws) {
			t.Fatalf("%s window %d (incremental=%v): answer sets diverge\nincremental: %v\noracle:      %v",
				label, wi, got.Incremental, renderAnswers(got.Answers), renderAnswers(want.Answers))
		}
		if got.GroundStats.Atoms != want.GroundStats.Atoms {
			t.Fatalf("%s window %d: ground atoms = %d, oracle %d",
				label, wi, got.GroundStats.Atoms, want.GroundStats.Atoms)
		}
		if got.Incremental {
			incremental++
		}
	}
	return incremental
}

func renderAnswers(answers []*solve.AnswerSet) []string {
	out := make([]string, len(answers))
	for i, a := range answers {
		out[i] = a.String()
	}
	return out
}

// rAdapter lets the plain R.ProcessDelta surface also serve PR (whose
// ProcessDelta has the same shape already).
var _ incrementalProcessor = (*R)(nil)
var _ incrementalProcessor = (*PR)(nil)

// TestDifferentialIncrementalVsScratch is the archetype centerpiece:
// randomized programs x randomized streams x window shapes x (R | PR),
// asserting that incremental processing produces answer sets set-identical
// to from-scratch grounding on every window — including windows where the
// incremental path falls back (tumbling emissions, ineligible programs).
func TestDifferentialIncrementalVsScratch(t *testing.T) {
	type winCfg struct{ size, step int }
	windows := []winCfg{
		{20, 5},  // the paper's sliding shape: high overlap
		{16, 4},  // Step = Size/4
		{20, 20}, // tumbling degenerate: must fall back, stay correct
		{12, 1},  // maximal overlap, one item per emission
	}
	programs := []struct {
		name string
		cfg  progen.Config
	}{
		{"flat", progen.Config{Derived: 3}},
		{"negation-heavy", progen.Config{Derived: 5, UnaryInputs: 2, BinaryInputs: 2}},
		{"recursive", progen.Config{Derived: 3, Recursion: true, Consts: 4}},
		{"constraints", progen.Config{Derived: 4, Constraints: true}},
		{"kitchen-sink", progen.Config{Derived: 4, UnaryInputs: 2, BinaryInputs: 2, Recursion: true, Constraints: true, Consts: 4}},
		{"ineligible-fallback", progen.Config{Derived: 3, Ineligible: true}},
	}
	for pi, pc := range programs {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(int64(100 + pi)))
			gp := progen.New(rnd, pc.cfg)
			prog, err := parser.Parse(gp.Src)
			if err != nil {
				t.Fatalf("generated program does not parse: %v\n%s", err, gp.Src)
			}
			cfg := Config{Program: prog, Inpre: gp.Inpre, Arities: dfp.Arities(gp.Arities)}
			triples := gp.Stream(rnd, pc.cfg, 140)

			for _, wc := range windows {
				emissions := emitWindows(triples, wc.size, wc.step)
				if len(emissions) == 0 {
					t.Fatalf("no emissions for %+v", wc)
				}

				// R incremental vs R from scratch.
				incR, err := NewR(cfg)
				if err != nil {
					t.Fatalf("NewR: %v\n%s", err, gp.Src)
				}
				oraR, err := NewR(cfg)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("R[size=%d step=%d]", wc.size, wc.step)
				incWindows := runDifferential(t, label, incR, oraR, emissions)
				if incR.SupportsIncremental() && !pc.cfg.Ineligible &&
					wc.step*4 <= wc.size && len(emissions) > 3 && incWindows == 0 {
					t.Errorf("%s: expected at least one incrementally maintained window", label)
				}
				if !incR.SupportsIncremental() && incWindows > 0 {
					t.Errorf("%s: ineligible program reported incremental windows", label)
				}

				// PR incremental vs PR from scratch (dependency plan: the
				// partitioning is deterministic, so the oracle matches).
				analysis, err := core.Analyze(prog, gp.Inpre, 1.0)
				if err != nil {
					continue // program has no partitioning plan; R covered it
				}
				incPR, err := NewPR(cfg, NewPlanPartitioner(analysis.Plan))
				if err != nil {
					t.Fatal(err)
				}
				oraPR, err := NewPR(cfg, NewPlanPartitioner(analysis.Plan))
				if err != nil {
					t.Fatal(err)
				}
				label = fmt.Sprintf("PR[size=%d step=%d]", wc.size, wc.step)
				runDifferential(t, label, incPR, oraPR, emissions)
			}
		})
	}
}

// TestDifferentialPaperProgram pins the harness to the paper's program P and
// traffic-shaped input predicates, at several overlap ratios.
func TestDifferentialPaperProgram(t *testing.T) {
	src := `
very_slow_speed(X) :- average_speed(X,Y), Y < 20.
many_cars(X) :- car_number(X,Y), Y > 40.
traffic_jam(X) :- very_slow_speed(X), many_cars(X), not traffic_light(X).
car_fire(X) :- car_in_smoke(C, high), car_speed(C, 0), car_location(C, X).
give_notification(X) :- traffic_jam(X).
give_notification(X) :- car_fire(X).
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	inpre := []string{"average_speed", "car_number", "traffic_light", "car_in_smoke", "car_speed", "car_location"}
	cfg := Config{Program: prog, Inpre: inpre, OutputPreds: []string{"traffic_jam", "car_fire", "give_notification"}}

	rnd := rand.New(rand.NewSource(7))
	var triples []rdf.Triple
	for i := 0; i < 400; i++ {
		loc := fmt.Sprintf("l%d", rnd.Intn(8))
		car := fmt.Sprintf("v%d", rnd.Intn(10))
		switch rnd.Intn(6) {
		case 0:
			triples = append(triples, rdf.Triple{S: loc, P: "average_speed", O: fmt.Sprint(rnd.Intn(60))})
		case 1:
			triples = append(triples, rdf.Triple{S: loc, P: "car_number", O: fmt.Sprint(rnd.Intn(80))})
		case 2:
			triples = append(triples, rdf.Triple{S: loc, P: "traffic_light", O: "true"})
		case 3:
			triples = append(triples, rdf.Triple{S: car, P: "car_in_smoke", O: "high"})
		case 4:
			triples = append(triples, rdf.Triple{S: car, P: "car_speed", O: fmt.Sprint(rnd.Intn(3))})
		default:
			triples = append(triples, rdf.Triple{S: car, P: "car_location", O: loc})
		}
	}
	for _, wc := range []struct{ size, step int }{{100, 20}, {100, 10}, {60, 60}} {
		emissions := emitWindows(triples, wc.size, wc.step)
		incR, err := NewR(cfg)
		if err != nil {
			t.Fatal(err)
		}
		oraR, err := NewR(cfg)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("P[size=%d step=%d]", wc.size, wc.step)
		inc := runDifferential(t, label, incR, oraR, emissions)
		if wc.step < wc.size && inc == 0 {
			t.Errorf("%s: sliding windows never took the incremental path", label)
		}
	}
}
