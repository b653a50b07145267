package bench

import (
	"strings"
	"testing"
)

// small returns a fast configuration for unit tests.
func small(src string) Config {
	return Config{
		ProgramSrc:  src,
		Sizes:       []int{500, 1000},
		RandomKs:    []int{2, 3},
		Seed:        7,
		Repetitions: 2,
	}
}

func TestRunShapeProgramP(t *testing.T) {
	res, err := Run(small(ProgramP))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Systems) != 4 { // R, PR_Dep, PR_Ran_k2, PR_Ran_k3
		t.Fatalf("systems = %v", res.Systems)
	}
	if got := res.Sizes(); len(got) != 2 || got[0] != 500 || got[1] != 1000 {
		t.Fatalf("sizes = %v", got)
	}
	for _, size := range res.Sizes() {
		r, ok := res.point("R", size)
		if !ok || r.Accuracy != 1 {
			t.Errorf("R accuracy at %d = %v", size, r.Accuracy)
		}
		dep, ok := res.point("PR_Dep", size)
		if !ok || dep.Accuracy < 0.9999 {
			t.Errorf("PR_Dep accuracy at %d = %v, want 1.0", size, dep.Accuracy)
		}
		ran, ok := res.point("PR_Ran_k3", size)
		if !ok || ran.Accuracy >= dep.Accuracy {
			t.Errorf("random accuracy %v should trail dependency accuracy %v", ran.Accuracy, dep.Accuracy)
		}
		if r.Latency <= 0 || dep.Latency <= 0 {
			t.Error("latencies must be measured")
		}
		if dep.DuplicationShare != 0 {
			t.Errorf("P has a disconnected input graph: duplication share = %v", dep.DuplicationShare)
		}
	}
}

func TestRunProgramPPrimeDuplication(t *testing.T) {
	res, err := Run(small(ProgramPPrime))
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range res.Sizes() {
		dep, ok := res.point("PR_Dep", size)
		if !ok {
			t.Fatal("missing PR_Dep point")
		}
		if dep.Accuracy < 0.9999 {
			t.Errorf("PR_Dep on P' accuracy = %v, want 1.0", dep.Accuracy)
		}
		if dep.DuplicationShare <= 0 {
			t.Error("P' requires duplication; share must be positive")
		}
	}
}

func TestNoDuplicationAblationLosesAccuracy(t *testing.T) {
	cfg := small(ProgramPPrime)
	cfg.Sizes = []int{2000}
	cfg.NoDuplication = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dep, _ := res.point("PR_Dep", 2000)
	if dep.DuplicationShare != 0 {
		t.Errorf("stripped plan must not duplicate, share = %v", dep.DuplicationShare)
	}
	if dep.Accuracy >= 0.9999 {
		t.Errorf("without duplication accuracy should drop below 1, got %v", dep.Accuracy)
	}
}

func TestCSVAndMarkdown(t *testing.T) {
	res, err := Run(Config{
		ProgramSrc: ProgramP, Sizes: []int{300}, RandomKs: []int{2},
		Seed: 1, Repetitions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	csv := res.CSV("latency_ms")
	if !strings.HasPrefix(csv, "window_size,R,PR_Dep,PR_Ran_k2\n300,") {
		t.Errorf("csv = %q", csv)
	}
	if lines := strings.Count(csv, "\n"); lines != 2 {
		t.Errorf("csv lines = %d", lines)
	}
	acc := res.CSV("accuracy")
	if !strings.Contains(acc, "1.0000") {
		t.Errorf("accuracy csv = %q", acc)
	}
	md := res.Markdown("accuracy", "Figure 8")
	if !strings.Contains(md, "### Figure 8") || !strings.Contains(md, "| 0k |") {
		t.Errorf("markdown = %q", md)
	}
}

func TestFigurePresets(t *testing.T) {
	for _, n := range []int{7, 8} {
		cfg, err := Figure(n)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.ProgramSrc != ProgramP {
			t.Errorf("figure %d should use P", n)
		}
	}
	for _, n := range []int{9, 10} {
		cfg, err := Figure(n)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.ProgramSrc != ProgramPPrime {
			t.Errorf("figure %d should use P'", n)
		}
	}
	if _, err := Figure(1); err == nil {
		t.Error("unknown figure must be rejected")
	}
}

// TestPaperShapes is the headline reproduction check at reduced scale:
// PR_Dep splits the window so that its largest sub-window (the critical
// path's work) is well below the whole window, random partitioning splits
// finer still but loses accuracy, and PR_Dep keeps 1.0. Work is asserted on
// sub-window sizes, which repeat per seed; the latencies are only logged,
// because wall-clock ratios flip on a loaded two-core host.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("shape check uses a 10k window")
	}
	cfg := Config{
		ProgramSrc:  ProgramP,
		Sizes:       []int{10000},
		RandomKs:    []int{2, 5},
		Seed:        11,
		Repetitions: 2,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := res.point("R", 10000)
	dep, _ := res.point("PR_Dep", 10000)
	ran2, _ := res.point("PR_Ran_k2", 10000)
	ran5, _ := res.point("PR_Ran_k5", 10000)

	t.Logf("latency: R %v, PR_Dep %v, PR_Ran_k5 %v", r.Latency, dep.Latency, ran5.Latency)
	t.Logf("largest sub-window: PR_Dep %.0f, PR_Ran_k5 %.0f of %d", dep.LargestPartition, ran5.LargestPartition, 10000)
	if dep.LargestPartition > 0.6*10000 {
		t.Errorf("PR_Dep largest sub-window %.0f should be at most 0.6 of the %d-item window", dep.LargestPartition, 10000)
	}
	if ran5.LargestPartition >= dep.LargestPartition {
		t.Errorf("PR_Ran_k5 largest sub-window %.0f should be below PR_Dep's %.0f", ran5.LargestPartition, dep.LargestPartition)
	}
	if dep.Accuracy < 0.9999 {
		t.Errorf("PR_Dep accuracy = %v", dep.Accuracy)
	}
	if ran2.Accuracy > 0.95 || ran5.Accuracy > ran2.Accuracy {
		t.Errorf("random accuracy should degrade with k: k2=%v k5=%v", ran2.Accuracy, ran5.Accuracy)
	}
}
