package bench

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSkewBenchSmoke runs the skew benchmark at a toy scale and checks the
// shape of the rows: both systems present and oracle-verified, zero
// fallbacks, and the adaptive run's elastic join and leave accounted.
func TestSkewBenchSmoke(t *testing.T) {
	rows, err := RunSkewBench(SkewBenchConfig{
		WindowSize: 600, WindowStep: 300, Windows: 6, Workers: 2, MaxFanout: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	bysys := make(map[string]SkewRow)
	for _, r := range rows {
		bysys[r.System] = r
	}
	for _, sys := range []string{"DPR_static", "DPR_adaptive"} {
		r, ok := bysys[sys]
		if !ok {
			t.Fatalf("missing row %s", sys)
		}
		if r.CPMs <= 0 || r.Windows == 0 || r.Partitions == 0 {
			t.Errorf("%s: degenerate row %+v", sys, r)
		}
		if r.Fallbacks != 0 {
			t.Errorf("%s: %d local fallbacks on loopback workers", sys, r.Fallbacks)
		}
	}
	st, ad := bysys["DPR_static"], bysys["DPR_adaptive"]
	if st.Moves+st.Splits+st.Joins+st.Leaves != 0 {
		t.Errorf("static run reports rebalancing: %+v", st)
	}
	if ad.Joins != 1 || ad.Leaves != 1 {
		t.Errorf("adaptive run joins/leaves = %d/%d, want 1/1", ad.Joins, ad.Leaves)
	}
}

// TestSkewBenchAdaptiveBeatsStatic is the PR's acceptance benchmark: on the
// skewed+bursty workload with 4 workers, the adaptive DPR must at least
// double the static DPR's modeled critical-path throughput (see
// SkewRow.CPMs — the loopback fleet shares one machine, so per-partition
// worker compute, not wall clock, is what the layout controls) while staying exact
// (every window of both runs is verified against R inside RunSkewBench),
// with at least two layout migrations plus the worker join and leave, and
// zero dropped or fallen-back windows.
func TestSkewBenchAdaptiveBeatsStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("skew benchmark: skipped in -short")
	}
	// The cp-ms numbers come from worker-reported compute times, so a loaded
	// host adds noise to both systems; allow a couple of attempts for the
	// >= 2x margin before declaring the layout loop broken.
	const attempts = 3
	var st, ad SkewRow
	for attempt := 1; attempt <= attempts; attempt++ {
		rows, err := RunSkewBench(SkewBenchConfig{})
		if err != nil {
			t.Fatal(err)
		}
		bysys := make(map[string]SkewRow)
		for _, r := range rows {
			bysys[r.System] = r
		}
		st, ad = bysys["DPR_static"], bysys["DPR_adaptive"]
		if st.CPMs <= 0 || ad.CPMs <= 0 {
			t.Fatalf("degenerate rows: %+v / %+v", st, ad)
		}
		ratio := st.CPMs / ad.CPMs
		if ratio >= 2 {
			break
		}
		if attempt == attempts {
			t.Errorf("adaptive speedup %.2fx over static, want >= 2x (static %.2f cp-ms, adaptive %.2f cp-ms)",
				ratio, st.CPMs, ad.CPMs)
		} else {
			t.Logf("attempt %d: speedup %.2fx < 2x (retrying)", attempt, ratio)
		}
	}
	if migrations := ad.Moves + ad.Splits; migrations < 2 {
		t.Errorf("only %d layout migrations (moves %d, splits %d), want >= 2",
			migrations, ad.Moves, ad.Splits)
	}
	if ad.Joins != 1 || ad.Leaves != 1 {
		t.Errorf("joins/leaves = %d/%d, want 1/1", ad.Joins, ad.Leaves)
	}
	if st.Fallbacks != 0 || ad.Fallbacks != 0 {
		t.Errorf("fallbacks: static %d, adaptive %d, want 0/0", st.Fallbacks, ad.Fallbacks)
	}
	if ad.Partitions <= st.Partitions {
		t.Errorf("adaptive finished with %d partitions, static %d — nothing was split", ad.Partitions, st.Partitions)
	}
	t.Logf("static %.2f cp-ms, adaptive %.2f cp-ms (%.2fx); adaptive: %d moves, %d splits, %d refused, %d partitions",
		st.CPMs, ad.CPMs, st.CPMs/ad.CPMs, ad.Moves, ad.Splits, ad.RefusedSplits, ad.Partitions)
}

// TestSkewBenchArtifact emits BENCH_7.json (the static vs adaptive
// speedup-vs-k curve on the skewed+bursty workload) when BENCH7_OUT names
// the destination; `make bench7` wraps exactly this.
func TestSkewBenchArtifact(t *testing.T) {
	out := os.Getenv("BENCH7_OUT")
	if out == "" {
		t.Skip("set BENCH7_OUT=/path/BENCH_7.json (or run `make bench7`) to emit the artifact")
	}
	fleets := []int{2, 4, 8}
	var rows []SkewRow
	var cfg SkewBenchConfig
	for _, k := range fleets {
		kcfg := SkewBenchConfig{Workers: k}
		krows, err := RunSkewBench(kcfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", k, err)
		}
		rows = append(rows, krows...)
		cfg = kcfg
	}
	cfg.fill()
	artifact := struct {
		Name   string          `json:"name"`
		Config SkewBenchConfig `json:"config"`
		Fleets []int           `json:"fleets"`
		Rows   []SkewRow       `json:"rows"`
	}{Name: "BENCH_7 static vs adaptive partitioning under skew", Config: cfg, Fleets: fleets, Rows: rows}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d rows)", out, len(rows))
}
