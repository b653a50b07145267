package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestFigureCSV(t *testing.T) {
	code, out, _ := runCLI(t, "-figure", "7", "-sizes", "400", "-reps", "1")
	if code != 0 {
		t.Fatalf("code = %d", code)
	}
	if !strings.Contains(out, "Figure 7") {
		t.Errorf("out = %q", out)
	}
	if !strings.Contains(out, "window_size,R,PR_Dep,PR_Ran_k2,PR_Ran_k3,PR_Ran_k4,PR_Ran_k5") {
		t.Errorf("header missing: %q", out)
	}
	if !strings.Contains(out, "400,") {
		t.Errorf("row missing: %q", out)
	}
}

func TestFigure9IncludesDupShare(t *testing.T) {
	code, out, _ := runCLI(t, "-figure", "9", "-sizes", "400", "-reps", "1")
	if code != 0 {
		t.Fatalf("code = %d", code)
	}
	if !strings.Contains(out, "duplication share") {
		t.Errorf("out = %q", out)
	}
}

func TestMarkdownOutput(t *testing.T) {
	code, out, _ := runCLI(t, "-figure", "8", "-sizes", "400", "-reps", "1", "-markdown")
	if code != 0 {
		t.Fatalf("code = %d", code)
	}
	if !strings.Contains(out, "### Figure 8") || !strings.Contains(out, "|---|") {
		t.Errorf("out = %q", out)
	}
}

func TestNoDupAblationFlag(t *testing.T) {
	code, out, _ := runCLI(t, "-figure", "10", "-sizes", "400", "-reps", "1", "-nodup")
	if code != 0 {
		t.Fatalf("code = %d", code)
	}
	if !strings.Contains(out, "Figure 10") {
		t.Errorf("out = %q", out)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCLI(t); code != 2 {
		t.Errorf("no flags: code = %d", code)
	}
	if code, _, _ := runCLI(t, "-figure", "3"); code != 2 {
		t.Errorf("unknown figure: code = %d", code)
	}
	if code, _, _ := runCLI(t, "-figure", "7", "-sizes", "abc"); code != 2 {
		t.Errorf("bad sizes: code = %d", code)
	}
	if code, _, _ := runCLI(t, "-figure", "7", "-sizes", "-5"); code != 2 {
		t.Errorf("negative size: code = %d", code)
	}
}
