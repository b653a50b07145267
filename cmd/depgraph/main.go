// Command depgraph runs the design-time input dependency analysis on a
// program and prints the extended dependency graph, the input dependency
// graph, and the partitioning plan — the artifacts of Figures 2-5.
//
// Usage:
//
//	depgraph -inpre average_speed,car_number,... program.lp
//	depgraph -inpre a,b -dot extended program.lp   # Graphviz output
//	depgraph -inpre a,b -dot input program.lp
//	depgraph -paper P        # built-in program P (Listing 1)
//	depgraph -paper Pprime   # P + rule r7
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"streamrule/internal/asp/parser"
	"streamrule/internal/bench"
	"streamrule/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("depgraph", flag.ContinueOnError)
	fs.SetOutput(stderr)
	inpre := fs.String("inpre", "", "comma-separated input predicate names")
	dot := fs.String("dot", "", "emit Graphviz for one graph: 'extended' or 'input'")
	resolution := fs.Float64("resolution", 1.0, "Louvain resolution for the decomposing process")
	paper := fs.String("paper", "", "use a built-in paper program: P or Pprime")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var src string
	switch {
	case *paper == "P":
		src = bench.ProgramP
	case *paper == "Pprime":
		src = bench.ProgramPPrime
	case fs.NArg() == 1:
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return fail(stderr, err)
		}
		src = string(data)
	default:
		fmt.Fprintln(stderr, "usage: depgraph [-inpre p1,p2,...] <program.lp>  (or -paper P|Pprime)")
		fs.Usage()
		return 2
	}

	preds := splitList(*inpre)
	if *paper != "" && len(preds) == 0 {
		preds = bench.Inpre
	}
	if len(preds) == 0 {
		return fail(stderr, fmt.Errorf("-inpre is required for user programs"))
	}

	prog, err := parser.Parse(src)
	if err != nil {
		return fail(stderr, err)
	}
	a, err := core.Analyze(prog, preds, *resolution)
	if err != nil {
		return fail(stderr, err)
	}

	switch *dot {
	case "extended":
		fmt.Fprint(stdout, a.Extended.DOT())
		return 0
	case "input":
		fmt.Fprint(stdout, a.Input.DOT())
		return 0
	case "":
	default:
		return fail(stderr, fmt.Errorf("unknown -dot target %q", *dot))
	}

	fmt.Fprintln(stdout, "== extended dependency graph (Definition 1) ==")
	fmt.Fprintln(stdout, "E1 (undirected body co-occurrence, self-loop = negated literal):")
	for _, e := range a.Extended.E1.Edges() {
		fmt.Fprintf(stdout, "  (%s, %s)\n", e[0], e[1])
	}
	fmt.Fprintln(stdout, "E2 (directed body -> head):")
	for _, from := range a.Extended.E2.Nodes() {
		for _, to := range a.Extended.E2.Succ(from) {
			fmt.Fprintf(stdout, "  %s -> %s\n", from, to)
		}
	}

	fmt.Fprintln(stdout, "\n== input dependency graph (Definition 2) ==")
	for _, e := range a.Input.G.Edges() {
		fmt.Fprintf(stdout, "  (%s, %s)\n", e[0], e[1])
	}
	comps := a.Input.G.ConnectedComponents()
	fmt.Fprintf(stdout, "connected: %v (%d component(s))\n", a.Input.G.IsConnected(), len(comps))

	fmt.Fprintln(stdout, "\n== partitioning plan (decomposing process, §II-B) ==")
	fmt.Fprint(stdout, a.Plan)
	if a.Plan.Connected {
		fmt.Fprintf(stdout, "modularity: %.4f (resolution %.2f)\n", a.Plan.Modularity, *resolution)
	}

	return 0
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "depgraph:", err)
	return 1
}
