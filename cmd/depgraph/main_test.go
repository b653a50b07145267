package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestPaperP(t *testing.T) {
	code, out, _ := runCLI(t, "-paper", "P")
	if code != 0 {
		t.Fatalf("code = %d", code)
	}
	for _, want := range []string{
		"(traffic_light, traffic_light)", // E1 self-loop
		"average_speed -> very_slow_speed",
		"connected: false (2 component(s))",
		"partitions: 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestPaperPPrimeDuplication(t *testing.T) {
	code, out, _ := runCLI(t, "-paper", "Pprime")
	if code != 0 {
		t.Fatalf("code = %d", code)
	}
	if !strings.Contains(out, "duplicated: car_number") {
		t.Errorf("out = %q", out)
	}
	if !strings.Contains(out, "modularity:") {
		t.Error("modularity missing for connected graph")
	}
}

func TestDotOutputs(t *testing.T) {
	code, out, _ := runCLI(t, "-paper", "P", "-dot", "extended")
	if code != 0 || !strings.HasPrefix(out, "digraph extended {") {
		t.Errorf("code = %d, out = %q", code, out)
	}
	code, out, _ = runCLI(t, "-paper", "P", "-dot", "input")
	if code != 0 || !strings.HasPrefix(out, "graph input {") {
		t.Errorf("code = %d, out = %q", code, out)
	}
	if code, _, _ := runCLI(t, "-paper", "P", "-dot", "bogus"); code != 1 {
		t.Errorf("bogus dot target: code = %d", code)
	}
}

func TestUserProgramFile(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "prog.lp")
	if err := os.WriteFile(file, []byte("x :- a(V), b(V)."), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runCLI(t, "-inpre", "a,b", file)
	if code != 0 {
		t.Fatalf("code = %d", code)
	}
	if !strings.Contains(out, "(a, b)") {
		t.Errorf("out = %q", out)
	}
	// Missing -inpre for user programs.
	if code, _, _ := runCLI(t, file); code != 1 {
		t.Errorf("missing inpre: code = %d", code)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCLI(t); code != 2 {
		t.Errorf("no args: code = %d", code)
	}
	// A bad resolution only matters when the graph is connected and Louvain
	// actually runs — i.e. for P', not for P.
	if code, _, _ := runCLI(t, "-paper", "Pprime", "-resolution", "-2"); code != 1 {
		t.Errorf("bad resolution: code = %d", code)
	}
	if code, _, _ := runCLI(t, "no-such.lp"); code != 1 {
		t.Errorf("missing file: code = %d", code)
	}
}
