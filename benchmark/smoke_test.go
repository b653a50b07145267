package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"streamrule/internal/bench"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifest holds BENCHMARK.json to the tables of this program and the
// tables to themselves: names well formed and unique, and every per-layer
// metric saying which end-to-end metric it should move on which workload.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	want := manifest()
	want.PerLayer = append([]metricDecl(nil), want.PerLayer...)
	for i := range want.PerLayer {
		want.PerLayer[i].Moves = "" // not part of the file
	}
	if !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from `go run ./benchmark --describe`")
	}

	e2e, names, loads := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, w := range workloads() {
		loads[w.name] = true
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
	for _, d := range endToEnd {
		e2e[d.Name] = true
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	if !e2e["setup_s"] {
		t.Error("no setup_s")
	}
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || names[d.Name] || loads[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		names[d.Name] = true
		if d.Unit == "" || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("%s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range perLayer {
		if strings.HasPrefix(d.Name, "trace.") {
			continue // how far to trust the rest; moves nothing
		}
		metric, workload, _ := strings.Cut(d.Moves, "@")
		if !e2e[metric] || !loads[workload] {
			t.Errorf("%s moves %q: no such end-to-end metric or workload", d.Name, d.Moves)
		}
	}
	for _, name := range exactCounts {
		if !names[name] {
			t.Errorf("exact count %s is not a declared metric", name)
		}
	}
}

// TestResidual6ExtendsProgramResidual keeps the benchmark's own program a
// superset of the one it is described as extending.
func TestResidual6ExtendsProgramResidual(t *testing.T) {
	for _, rule := range strings.Split(bench.ProgramResidual, "\n") {
		if rule = strings.TrimSpace(rule); rule != "" && !strings.Contains(programResidual6, rule) {
			t.Errorf("residual6.lp lacks %q", rule)
		}
	}
}

// zeroWhenHealthy are the per-layer metrics that are 0 on the very workload
// they are declared to move, and rightly.
var zeroWhenHealthy = map[string]bool{
	// Counts of what a healthy run does not do.
	"dfp.skipped": true, "serve.shed": true, "serve.errors": true, "serve.blocked": true,
	"serve.over_limit.lo": true, "serve.over_limit.hi": true,
	"serve.backlog_end.lo": true, "serve.backlog_end.hi": true,
	"transport.local_fallbacks": true, "transport.redials": true,
	// Counters of the CDNL solver, which the default engine does not use.
	"solve.conflicts": true, "solve.reused_clauses": true,
	// The share of windows that stay on the stratified fast path, which is
	// none of residual-w5k's and all of every other workload's.
	"solve.fastpath_share": true,
}

// TestWorkloadsSmoke runs every workload at a fraction of its size, untraced
// and traced: the oracles pass, every declared metric comes out with its
// unit and is not 0 on the workload it is declared to move, the layer walk
// agrees with the facade, and the trace is well formed.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads() {
		w.shrink()
		for _, traced := range []bool{false, true} {
			o, err := runWorkload(w, 7, 5, traced)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !o.res.Correct || o.res.Failed != 0 || o.res.Attempted < 1 {
				t.Errorf("%s traced=%t: correct %t, %d of %d failed: %v", w.name, traced, o.res.Correct, o.res.Failed, o.res.Attempted, o.notes)
			}
			decls := endToEnd
			if traced {
				decls = perLayer
			}
			if len(o.res.Metrics) != len(decls) {
				t.Errorf("%s traced=%t: %d metrics, want %d", w.name, traced, len(o.res.Metrics), len(decls))
			}
			for _, d := range decls {
				v, ok := o.res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s: metric %s missing or in unit %q", w.name, d.Name, v.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w.name, d.Name, v.Value)
				}
			}
			for _, d := range perLayer {
				_, on, _ := strings.Cut(d.Moves, "@")
				if traced && on == w.name && o.res.Metrics[d.Name].Value == 0 && !zeroWhenHealthy[d.Name] {
					t.Errorf("%s is 0 on %s, the workload it is declared to move", d.Name, w.name)
				}
			}
			if o.digest == "" {
				t.Errorf("%s: no answers_digest", w.name)
			}
			if traced {
				if len(o.spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", w.name)
				}
				if err := checkSpans(o.spans); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
			}
		}
	}
}

func TestSelfTimeIsDurationMinusCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 50}, // two children overlap, as partitions do
		{ID: 2, Parent: 0, Start: 30, End: 70},
		{ID: 3, Parent: 1, Start: 20, End: 40},
	}
	if got, want := selfTimes(spans), []int64{40, 20, 40, 20}; !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	if err := checkSpans(spans); err != nil {
		t.Error(err)
	}
	spans[3].Parent = 9
	if checkSpans(spans) == nil {
		t.Error("an unresolved parent passed the check")
	}
}
