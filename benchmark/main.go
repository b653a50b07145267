// Command benchmark is the repository's benchmark: five stream-reasoning
// workloads measured end to end through the public facade, a traced run that
// attributes window time to layers, and a correctness oracle on every run.
//
//	go run ./benchmark --workload tumbling-w20k --seed 1 --seconds 24 --trace 0
//
// runs one workload in this process and prints its result as the last line of
// standard output. Without --workload it runs every workload, untraced and
// traced, each in a child process of its own. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"

	"streamrule"
)

// defaultSeconds is run_seconds of BENCHMARK.json. A run measures a fixed
// number of windows, which takes the seed commit 12 to 19 seconds; this is
// where a slower machine's run is cut short.
const defaultSeconds = 24

func main() {
	name := flag.String("workload", "", "run this one workload in-process and print its result as the last line")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same streams")
	seconds := flag.Float64("seconds", defaultSeconds, "the longest a timed phase may last; it measures a fixed number of windows")
	trace := flag.Int("trace", 0, "0: end-to-end metrics through the facade; 1: per-layer metrics from the traced run")
	repeat := flag.Int("repeat", 0, "run this many full sets and print each end-to-end metric's spread against its bound")
	calibrate := flag.Bool("calibrate", false, "print the closed-loop rate of tenants-1k, from which its fixed open-loop rates derive")
	describe := flag.Bool("describe", false, "print BENCHMARK.json as this program declares it")
	flag.Parse()

	var err error
	switch {
	case *describe:
		var doc []byte
		if doc, err = json.MarshalIndent(manifest(), "", "  "); err == nil {
			fmt.Println(string(doc))
		}
	case *calibrate:
		err = calibrateRates(*seed, *seconds)
	case *name != "":
		err = runOne(*name, *seed, *seconds, *trace == 1)
	default:
		err = runSets(max(1, *repeat), *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// benchmarkFile is the shape of BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifest is BENCHMARK.json as the tables of this program declare it;
// smoke_test.go holds the file at the root of the repository to it.
func manifest() benchmarkFile {
	b := benchmarkFile{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads() {
		b.Workloads = append(b.Workloads, workloadDecl{w.name, w.why})
	}
	return b
}

// runOne runs one workload here and prints the report, the result last.
func runOne(name string, seed int64, seconds float64, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	o, err := runWorkload(w, seed, seconds, traced)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s seed %d seconds %g trace %t\n", w.name, seed, seconds, traced)
	names := make([]string, 0, len(o.res.Metrics))
	for n := range o.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := o.res.Metrics[n]
		fmt.Printf("  %-36s %16.6g %s\n", n, v.Value, v.Unit)
	}
	for _, n := range o.cuts {
		fmt.Println("  SHORT", n)
	}
	for _, n := range o.notes {
		fmt.Println("  FAIL", n)
	}
	if traced {
		path, err := writeSpans(w.name, seed, o.spans)
		if err != nil {
			return err
		}
		fmt.Printf("spans %d written to %s\n", len(o.spans), path)
	}
	fmt.Printf("answers_digest %s\n", o.digest)
	last, err := json.Marshal(o.res)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	if !o.res.Correct {
		return fmt.Errorf("%s: %d of %d failed", w.name, o.res.Failed, o.res.Attempted)
	}
	return nil
}

// childRun is what the parent keeps of one child process.
type childRun struct {
	res    result
	digest string
}

// runChild runs one workload in a child process and reads its last line.
func runChild(name string, seed int64, seconds float64, trace int) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output() // waits for the child to end
	cr := &childRun{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	last := ""
	for sc.Scan() {
		last = sc.Text()
		if d, ok := strings.CutPrefix(last, "answers_digest "); ok {
			cr.digest = d
		}
		if strings.HasPrefix(last, "  FAIL") || strings.HasPrefix(last, "  SHORT") {
			fmt.Println(name+":", strings.TrimSpace(last))
		}
	}
	if err := json.Unmarshal([]byte(last), &cr.res); err != nil {
		return nil, fmt.Errorf("%s: no result (%v, %v)", name, runErr, err)
	}
	return cr, nil
}

// exactCounts are the per-layer metrics that are counts over a fixed prefix
// of windows: they repeat exactly for a seed, so a later change may claim on
// them.
var exactCounts = []string{
	"stream.items_in", "stream.windows_out", "stream.delta_items_per_window", "dfp.skipped",
	"ground.rules_out", "ground.certain_atoms", "reasoner.routed_items",
	"solve.models", "solve.rule_visits", "solve.decisions", "solve.conflicts", "solve.stability_checks", "solve.reused_clauses",
}

// gated are the issue's end-to-end metrics that exist on one workload only.
// BENCHMARK.json wants every end-to-end metric from every workload and admits
// no bound on a per-layer one, so they are per-layer metrics there, and
// --repeat holds them to the issue's bound on the workload that has them. The
// other lag percentiles are not here because they do not repeat within theirs
// (README.md has the numbers).
var gated = []struct {
	workload, metric string
	bound            float64
}{
	{"dpr-loopback-w10k-s1k", "transport.wire_bytes_per_window", 0.05},
	{"tenants-1k", "serve.lag_p50_ms.lo", 0.10},
}

// runSets runs n full sets — every workload untraced and traced, each in its
// own child process — and prints every metric by name. With n > 1 it also
// prints how well the end-to-end metrics and the exact counts repeat.
func runSets(n int, seed int64, seconds float64) error {
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	digests := map[string]map[string]bool{}
	ok := true
	for set := 0; set < n; set++ {
		for _, w := range workloads() {
			for trace := 0; trace <= 1; trace++ {
				cr, err := runChild(w.name, seed, seconds, trace)
				if err != nil {
					return err
				}
				ok = ok && cr.res.Correct
				fmt.Printf("set %d  %s  trace %d  correct %t  attempted %d  failed %d  answers_digest %s\n",
					set+1, w.name, trace, cr.res.Correct, cr.res.Attempted, cr.res.Failed, cr.digest)
				decls := endToEnd
				if trace == 1 {
					decls = perLayer
				}
				for _, d := range decls {
					v := cr.res.Metrics[d.Name]
					fmt.Printf("  %-36s %16.6g %s\n", d.Name, v.Value, v.Unit)
					values[key{w.name, d.Name}] = append(values[key{w.name, d.Name}], v.Value)
				}
				if digests[w.name] == nil {
					digests[w.name] = map[string]bool{}
				}
				digests[w.name][cr.digest] = true
			}
		}
	}
	if n > 1 {
		fmt.Printf("\nrepeatability over %d sets (spread = %s / median)\n", n, spreadName(n))
		for _, w := range workloads() {
			held := func(metric string, bound float64) {
				s := spread(values[key{w.name, metric}])
				verdict := "within bound"
				if s > bound {
					verdict = "OUTSIDE BOUND"
					ok = false
				}
				fmt.Printf("  %-24s %-32s spread %6.2f%%  bound %4.0f%%  %s\n", w.name, metric, 100*s, 100*bound, verdict)
			}
			for _, d := range endToEnd {
				held(d.Name, d.Bound)
			}
			for _, g := range gated {
				if g.workload == w.name {
					held(g.metric, g.bound)
				}
			}
			for _, name := range exactCounts {
				vs := values[key{w.name, name}]
				for _, v := range vs {
					if v != vs[0] {
						fmt.Printf("  %-24s %-32s NOT EXACT: %v\n", w.name, name, vs)
						ok = false
						break
					}
				}
			}
			if len(digests[w.name]) != 1 {
				fmt.Printf("  %-24s answers_digest differs between runs\n", w.name)
				ok = false
			}
		}
	}
	if !ok {
		return fmt.Errorf("a run was incorrect or did not repeat")
	}
	return nil
}

func spreadName(n int) string {
	if n >= 4 {
		return "interquartile range"
	}
	return "range"
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles Python's statistics.quantiles(n=4) gives;
// with fewer than four values it is the whole range.
func spread(xs []float64) float64 {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n < 4 {
		return ratio(xs[n-1]-xs[0], median(xs))
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return ratio(q(3)-q(1), median(xs))
}

// calibrateRates measures the closed-loop rate of tenants-1k on this machine
// and prints the open-loop rates that are 30% and 70% of it. The rates in
// workloads.go are frozen; revise them only together with the benchmark.
func calibrateRates(seed int64, seconds float64) error {
	w, err := findWorkload("tenants-1k")
	if err != nil {
		return err
	}
	f, err := newFleet(w, seed, streamrule.BlockIngress, nil)
	if err != nil {
		return err
	}
	defer f.close()
	roundS, _, err := f.closedLoop(w.rounds, seconds)
	if err != nil {
		return err
	}
	rate := batchRate(roundS, w.tenants)
	fmt.Printf("tenants-1k closed loop: %d rounds in %.3f s, median rate %.0f items/s\n", len(roundS), sum(roundS), rate)
	fmt.Printf("lo (30%%) = %.0f items/s, hi (70%%) = %.0f items/s; frozen: lo %.0f, hi %.0f\n", 0.3*rate, 0.7*rate, w.rateLo, w.rateHi)
	return nil
}
