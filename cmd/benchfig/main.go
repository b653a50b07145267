// Command benchfig regenerates the paper's evaluation figures (7-10) as CSV
// series: reasoning latency and answer accuracy over window sizes 5k-40k for
// R, PR_Dep, and PR_Ran_k (k=2..5).
//
// Usage:
//
//	benchfig -figure 7            # latency, program P
//	benchfig -figure 8            # accuracy, program P
//	benchfig -figure 9            # latency, program P'
//	benchfig -figure 10           # accuracy, program P'
//	benchfig -figure 7 -sizes 5000,10000 -reps 5 -seed 3
//	benchfig -all                 # all four figures, markdown tables
//
// End-to-end throughput and per-layer timings live in the repository
// benchmark (go run ./benchmark), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"streamrule/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchfig", flag.ContinueOnError)
	fs.SetOutput(stderr)
	figure := fs.Int("figure", 0, "paper figure to regenerate (7, 8, 9, or 10)")
	all := fs.Bool("all", false, "run all four figures and print markdown tables")
	sizes := fs.String("sizes", "", "comma-separated window sizes (default 5000..40000 step 5000)")
	reps := fs.Int("reps", 3, "windows averaged per point")
	seed := fs.Int64("seed", 1, "workload seed")
	resolution := fs.Float64("resolution", 1.0, "Louvain resolution for the decomposing process")
	noDup := fs.Bool("nodup", false, "ablation: strip duplicated predicates from the plan")
	markdown := fs.Bool("markdown", false, "emit a markdown table instead of CSV")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *all {
		if err := runAll(stdout, *reps, *seed); err != nil {
			fmt.Fprintln(stderr, "benchfig:", err)
			return 1
		}
		return 0
	}
	if *figure == 0 {
		fmt.Fprintln(stderr, "benchfig: -figure or -all is required")
		fs.Usage()
		return 2
	}
	cfg, err := bench.Figure(*figure)
	if err != nil {
		fmt.Fprintln(stderr, "benchfig:", err)
		return 2
	}
	cfg.Repetitions = *reps
	cfg.Seed = *seed
	cfg.Resolution = *resolution
	cfg.NoDuplication = *noDup
	if *sizes != "" {
		cfg.Sizes, err = parseSizes(*sizes)
		if err != nil {
			fmt.Fprintln(stderr, "benchfig:", err)
			return 2
		}
	}

	res, err := bench.Run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchfig:", err)
		return 1
	}
	metric, title := metricFor(*figure)
	if *markdown {
		fmt.Fprint(stdout, res.Markdown(metric, title))
		return 0
	}
	fmt.Fprintf(stdout, "# %s\n", title)
	fmt.Fprint(stdout, res.CSV(metric))
	if *figure == 9 || *figure == 10 {
		fmt.Fprintln(stdout, "# duplication share (fraction of routed items that are duplicated copies)")
		fmt.Fprint(stdout, res.CSV("dup_share"))
	}
	return 0
}

func metricFor(figure int) (metric, title string) {
	switch figure {
	case 7:
		return "latency_ms", "Figure 7: reasoning latency (ms, critical path), program P"
	case 8:
		return "accuracy", "Figure 8: accuracy, program P"
	case 9:
		return "latency_ms", "Figure 9: reasoning latency (ms, critical path), program P'"
	default:
		return "accuracy", "Figure 10: accuracy, program P'"
	}
}

func runAll(stdout io.Writer, reps int, seed int64) error {
	for _, figure := range []int{7, 8, 9, 10} {
		cfg, err := bench.Figure(figure)
		if err != nil {
			return err
		}
		cfg.Repetitions = reps
		cfg.Seed = seed
		res, err := bench.Run(cfg)
		if err != nil {
			return err
		}
		metric, title := metricFor(figure)
		fmt.Fprintln(stdout, res.Markdown(metric, title))
	}
	return nil
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
