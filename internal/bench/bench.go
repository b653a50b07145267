// Package bench is the experiment harness that regenerates the evaluation of
// the paper (§IV): reasoning latency and answer accuracy as a function of
// window size, for the whole-window reasoner R, the dependency-partitioned
// reasoner PR_Dep, and the random-partitioning baselines PR_Ran_k.
//
// Figures 7/8 use program P (Listing 1); Figures 9/10 use program P' (P plus
// rule r7, whose input dependency graph is connected and requires predicate
// duplication). Each figure is a set of series over window sizes 5k..40k —
// exactly the axes of the paper's plots.
package bench

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"streamrule/internal/asp/parser"
	"streamrule/internal/core"
	"streamrule/internal/rdf"
	"streamrule/internal/reasoner"
	"streamrule/internal/workload"
)

// ProgramP is Listing 1 of the paper.
const ProgramP = `
very_slow_speed(X) :- average_speed(X,Y), Y < 20.
many_cars(X) :- car_number(X,Y), Y > 40.
traffic_jam(X) :- very_slow_speed(X), many_cars(X), not traffic_light(X).
car_fire(X) :- car_in_smoke(C, high), car_speed(C, 0), car_location(C, X).
give_notification(X) :- traffic_jam(X).
give_notification(X) :- car_fire(X).
`

// ProgramPPrime is P extended with rule r7 (§II-B), which connects the input
// dependency graph.
const ProgramPPrime = ProgramP + `
traffic_jam(X) :- car_fire(X), many_cars(X).
`

// ProgramResidual is P extended with an incident-response layer that the
// grounder cannot evaluate away: an even negation loop per traffic jam
// (investigate/dismiss, pinned deterministic by the constraint), a tight
// 1{..}1 dispatch choice per car fire, and three genuinely free even loops
// over the health of the sensor, radar, and camera feeds, each gating its
// own response rules. Every jam and fire atom in a window therefore
// contributes residual rules the solver must propagate through, and the
// free loops give each window exactly eight answer sets reached through a
// real search tree (15 propagate calls per window) — the shape that
// separates event-driven propagation from the rescan baseline, which
// re-walks the whole program on every branch. Pair it with
// workload.ResidualTraffic.
const ProgramResidual = ProgramP + `
investigate(X) :- traffic_jam(X), not dismiss(X).
dismiss(X) :- traffic_jam(X), not investigate(X).
:- dismiss(X).
1 { dispatch(X) } 1 :- car_fire(X).
escalate(X) :- dispatch(X), many_cars(X).
sensors_degraded :- not sensors_ok.
sensors_ok :- not sensors_degraded.
recheck(X) :- investigate(X), sensors_degraded.
radar_degraded :- not radar_ok.
radar_ok :- not radar_degraded.
manual_count(X) :- escalate(X), radar_degraded.
camera_degraded :- not camera_ok.
camera_ok :- not camera_degraded.
patrol(X) :- dispatch(X), camera_degraded.
`

// Inpre is inpre(P) = inpre(P').
var Inpre = []string{
	"average_speed", "car_number", "traffic_light",
	"car_in_smoke", "car_speed", "car_location",
}

// Outputs are the event predicates the scenario reports downstream; accuracy
// is measured on these.
var Outputs = []string{"traffic_jam", "car_fire", "give_notification"}

// FreshTraffic generates a ProgramP-shaped stream whose location and vehicle
// constants advance with the stream position (~9 and ~13 triples per
// constant) and never recur once the stream has moved on — the
// "timestamped" input shape (unique event IDs, rolling sensor identifiers)
// that grows an interning table without bound. It backs the eviction soak
// test and BenchmarkFig7SoakEviction.
func FreshTraffic(seed int64, n int) []rdf.Triple {
	rnd := rand.New(rand.NewSource(seed))
	out := make([]rdf.Triple, 0, n)
	for i := 0; i < n; i++ {
		loc := fmt.Sprintf("l%d", i/9)
		car := fmt.Sprintf("v%d", i/13)
		switch rnd.Intn(6) {
		case 0:
			out = append(out, rdf.Triple{S: loc, P: "average_speed", O: fmt.Sprint(rnd.Intn(60))})
		case 1:
			out = append(out, rdf.Triple{S: loc, P: "car_number", O: fmt.Sprint(rnd.Intn(80))})
		case 2:
			out = append(out, rdf.Triple{S: loc, P: "traffic_light", O: "true"})
		case 3:
			out = append(out, rdf.Triple{S: car, P: "car_in_smoke", O: "high"})
		case 4:
			out = append(out, rdf.Triple{S: car, P: "car_speed", O: fmt.Sprint(rnd.Intn(3))})
		default:
			out = append(out, rdf.Triple{S: car, P: "car_location", O: loc})
		}
	}
	return out
}

// Config parameterizes one experiment run.
type Config struct {
	// ProgramSrc is the rule set (ProgramP or ProgramPPrime).
	ProgramSrc string
	// Inpre / Outputs default to the paper's sets when empty.
	Inpre   []string
	Outputs []string
	// Sizes are the window sizes; default 5k..40k in 5k steps (the x-axis
	// of Figures 7-10).
	Sizes []int
	// RandomKs are the random-partitioning fan-outs; default 2..5.
	RandomKs []int
	// Seed drives workload generation and random partitioning.
	Seed int64
	// Repetitions averages each point over this many fresh windows
	// (default 3).
	Repetitions int
	// Resolution is the Louvain resolution (default 1.0).
	Resolution float64
	// NoDuplication strips duplicated predicates from the dependency plan
	// (ablation).
	NoDuplication bool
}

func (c *Config) fill() {
	if len(c.Inpre) == 0 {
		c.Inpre = Inpre
	}
	if len(c.Outputs) == 0 {
		c.Outputs = Outputs
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{5000, 10000, 15000, 20000, 25000, 30000, 35000, 40000}
	}
	if len(c.RandomKs) == 0 {
		c.RandomKs = []int{2, 3, 4, 5}
	}
	if c.Repetitions <= 0 {
		c.Repetitions = 3
	}
	if c.Resolution == 0 {
		c.Resolution = 1.0
	}
}

// Point is one measured cell: a system at a window size.
type Point struct {
	System     string
	WindowSize int
	// Latency is the parallel (critical-path) latency — the quantity the
	// paper plots. Wall is the single-host wall-clock time.
	Latency time.Duration
	Wall    time.Duration
	// Accuracy is relative to R's answers on the same window (R itself
	// scores 1 by definition).
	Accuracy float64
	// DuplicationShare is the fraction of routed items that were duplicated
	// copies (dependency plans on connected graphs only).
	DuplicationShare float64
	// LargestPartition is the mean size in items of the largest sub-window
	// (the whole window for R): the deterministic work bound behind the
	// critical-path latency.
	LargestPartition float64
}

// Result is a full experiment: all systems at all sizes.
type Result struct {
	Name    string
	Systems []string
	Points  []Point
}

// Run executes the experiment.
func Run(cfg Config) (*Result, error) {
	cfg.fill()
	prog, err := parser.Parse(cfg.ProgramSrc)
	if err != nil {
		return nil, err
	}
	rcfg := reasoner.Config{Program: prog, Inpre: cfg.Inpre, OutputPreds: cfg.Outputs}

	r, err := reasoner.NewR(rcfg)
	if err != nil {
		return nil, err
	}
	analysis, err := core.Analyze(prog, cfg.Inpre, cfg.Resolution)
	if err != nil {
		return nil, err
	}
	plan := analysis.Plan
	if cfg.NoDuplication {
		plan = core.StripDuplicates(plan)
	}
	prDep, err := reasoner.NewPR(rcfg, reasoner.NewPlanPartitioner(plan))
	if err != nil {
		return nil, err
	}
	prRan := make(map[int]*reasoner.PR, len(cfg.RandomKs))
	for _, k := range cfg.RandomKs {
		pr, err := reasoner.NewPR(rcfg, reasoner.NewRandomPartitioner(k, cfg.Seed+int64(k)))
		if err != nil {
			return nil, err
		}
		prRan[k] = pr
	}

	res := &Result{Name: "latency/accuracy sweep"}
	res.Systems = append(res.Systems, "R", "PR_Dep")
	for _, k := range cfg.RandomKs {
		res.Systems = append(res.Systems, fmt.Sprintf("PR_Ran_k%d", k))
	}

	type acc struct {
		lat, wall time.Duration
		accuracy  float64
		dup       float64
		largest   int
	}
	for _, size := range cfg.Sizes {
		sums := make(map[string]*acc)
		for _, sys := range res.Systems {
			sums[sys] = &acc{}
		}
		for rep := 0; rep < cfg.Repetitions; rep++ {
			gen, err := workload.NewGenerator(cfg.Seed+int64(size)*31+int64(rep), workload.PaperTraffic())
			if err != nil {
				return nil, err
			}
			window := gen.Window(size)

			ref, err := r.Process(window)
			if err != nil {
				return nil, err
			}
			record := func(sys string, out *reasoner.Output) {
				s := sums[sys]
				s.lat += out.Latency.CriticalPath
				s.wall += out.Latency.Total
				s.accuracy += reasoner.Accuracy(out.Answers, ref.Answers)
				s.dup += out.DuplicationShare(len(window))
				largest := len(window)
				if len(out.PartitionSizes) > 0 {
					largest = slices.Max(out.PartitionSizes)
				}
				s.largest += largest
			}
			record("R", ref)

			dep, err := prDep.Process(window)
			if err != nil {
				return nil, err
			}
			record("PR_Dep", dep)

			for _, k := range cfg.RandomKs {
				out, err := prRan[k].Process(window)
				if err != nil {
					return nil, err
				}
				record(fmt.Sprintf("PR_Ran_k%d", k), out)
			}
		}
		n := time.Duration(cfg.Repetitions)
		for _, sys := range res.Systems {
			s := sums[sys]
			res.Points = append(res.Points, Point{
				System:           sys,
				WindowSize:       size,
				Latency:          s.lat / n,
				Wall:             s.wall / n,
				Accuracy:         s.accuracy / float64(cfg.Repetitions),
				DuplicationShare: s.dup / float64(cfg.Repetitions),
				LargestPartition: float64(s.largest) / float64(cfg.Repetitions),
			})
		}
	}
	return res, nil
}

// point looks up a cell.
func (r *Result) point(sys string, size int) (Point, bool) {
	for _, p := range r.Points {
		if p.System == sys && p.WindowSize == size {
			return p, true
		}
	}
	return Point{}, false
}

// Sizes returns the distinct window sizes in ascending order.
func (r *Result) Sizes() []int {
	seen := make(map[int]bool)
	var out []int
	for _, p := range r.Points {
		if !seen[p.WindowSize] {
			seen[p.WindowSize] = true
			out = append(out, p.WindowSize)
		}
	}
	sort.Ints(out)
	return out
}

// CSV renders one metric ("latency_ms", "wall_ms", "accuracy", "dup_share")
// as a window-size × system table in CSV.
func (r *Result) CSV(metric string) string {
	var b strings.Builder
	b.WriteString("window_size")
	for _, sys := range r.Systems {
		b.WriteByte(',')
		b.WriteString(sys)
	}
	b.WriteByte('\n')
	for _, size := range r.Sizes() {
		fmt.Fprintf(&b, "%d", size)
		for _, sys := range r.Systems {
			p, ok := r.point(sys, size)
			b.WriteByte(',')
			if !ok {
				continue
			}
			switch metric {
			case "latency_ms":
				fmt.Fprintf(&b, "%.2f", float64(p.Latency.Microseconds())/1000)
			case "wall_ms":
				fmt.Fprintf(&b, "%.2f", float64(p.Wall.Microseconds())/1000)
			case "accuracy":
				fmt.Fprintf(&b, "%.4f", p.Accuracy)
			case "dup_share":
				fmt.Fprintf(&b, "%.4f", p.DuplicationShare)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Markdown renders one metric as a markdown table (for EXPERIMENTS.md).
func (r *Result) Markdown(metric, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n| window |", title)
	for _, sys := range r.Systems {
		fmt.Fprintf(&b, " %s |", sys)
	}
	b.WriteString("\n|---|")
	for range r.Systems {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for _, size := range r.Sizes() {
		fmt.Fprintf(&b, "| %dk |", size/1000)
		for _, sys := range r.Systems {
			p, _ := r.point(sys, size)
			switch metric {
			case "latency_ms":
				fmt.Fprintf(&b, " %.1f |", float64(p.Latency.Microseconds())/1000)
			case "accuracy":
				fmt.Fprintf(&b, " %.3f |", p.Accuracy)
			case "dup_share":
				fmt.Fprintf(&b, " %.3f |", p.DuplicationShare)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Figure returns the preset configuration for a paper figure number:
// 7 and 8 run program P; 9 and 10 run program P'. (7/9 read the latency
// columns, 8/10 the accuracy columns of the same run.)
func Figure(n int) (Config, error) {
	switch n {
	case 7, 8:
		return Config{ProgramSrc: ProgramP, Seed: 1}, nil
	case 9, 10:
		return Config{ProgramSrc: ProgramPPrime, Seed: 1}, nil
	default:
		return Config{}, fmt.Errorf("no preset for figure %d (supported: 7, 8, 9, 10)", n)
	}
}
