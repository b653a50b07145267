package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"streamrule"
	"streamrule/internal/transport/tlstest"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestSyntheticPipelinePR(t *testing.T) {
	code, out, errOut := runCLI(t, "-paper", "P", "-window", "1000", "-windows", "2")
	if code != 0 {
		t.Fatalf("code = %d, stderr = %q", code, errOut)
	}
	if !strings.Contains(out, "partitions: 2") {
		t.Errorf("plan missing: %q", out)
	}
	if strings.Count(out, "window ") != 2 {
		t.Errorf("expected 2 windows: %q", out)
	}
	if !strings.Contains(out, "critical-path=") {
		t.Errorf("latency breakdown missing: %q", out)
	}
}

func TestModeR(t *testing.T) {
	code, out, _ := runCLI(t, "-paper", "P", "-mode", "R", "-window", "800", "-windows", "1")
	if code != 0 {
		t.Fatalf("code = %d", code)
	}
	if strings.Contains(out, "partitioning plan") {
		t.Error("mode R must not print a plan")
	}
}

// The residual paper program must engage the solver search on every window
// (no fast path), print the solver work profile, and produce identical
// answers under the -naive-solver ablation.
func TestResidualProgramSolverStats(t *testing.T) {
	code, out, errOut := runCLI(t, "-paper", "Presidual", "-mode", "R", "-window", "1000", "-windows", "2")
	if code != 0 {
		t.Fatalf("code = %d, stderr = %q", code, errOut)
	}
	if !strings.Contains(out, "solver: residual-windows=2/2") {
		t.Errorf("solver stats line missing or wrong: %q", out)
	}
	if !strings.Contains(out, "rule-visits=") || !strings.Contains(out, "source-repairs=") {
		t.Errorf("solver work profile missing: %q", out)
	}
	// Stratified windows ride the fast path — even through PR's aggregated
	// stats — and must not be reported as residual.
	code, stratOut, _ := runCLI(t, "-paper", "P", "-window", "1000", "-windows", "2")
	if code != 0 {
		t.Fatalf("stratified: code = %d", code)
	}
	if strings.Contains(stratOut, "solver: residual-windows=") {
		t.Errorf("stratified program reported residual windows: %q", stratOut)
	}
	code, naiveOut, _ := runCLI(t, "-paper", "Presidual", "-mode", "R", "-window", "1000", "-windows", "2", "-naive-solver")
	if code != 0 {
		t.Fatalf("naive: code = %d", code)
	}
	if !strings.Contains(naiveOut, "queue-pushes=0 source-repairs=0") {
		t.Errorf("naive ablation still used the counter engine: %q", naiveOut)
	}
	// Same stream, same windows: the answer-set sizes must match as sorted
	// multisets (the engines may enumerate the same answers in a different
	// order, so the "answer N:" indices are stripped before comparing).
	filter := func(s string) []string {
		var kept []string
		for _, line := range strings.Split(s, "\n") {
			line = strings.TrimSpace(line)
			if strings.HasPrefix(line, "answer ") {
				_, size, ok := strings.Cut(line, ": ")
				if !ok {
					t.Fatalf("malformed answer line %q", line)
				}
				kept = append(kept, size)
			}
		}
		slices.Sort(kept)
		return kept
	}
	a, b := filter(out), filter(naiveOut)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("answer summaries differ in count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("answer summary %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestStreamFromFile(t *testing.T) {
	dir := t.TempDir()
	progFile := filepath.Join(dir, "rules.lp")
	streamFile := filepath.Join(dir, "stream.nt")
	if err := os.WriteFile(progFile, []byte("hot(X) :- temp(X, V), V > 30."), 0o644); err != nil {
		t.Fatal(err)
	}
	stream := `
room1 temp 35 .
room2 temp 20 .
room3 temp 40 .
`
	if err := os.WriteFile(streamFile, []byte(strings.TrimSpace(stream)), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCLI(t,
		"-program", progFile, "-inpre", "temp",
		"-stream", streamFile, "-window", "10", "-mode", "R", "-v")
	if code != 0 {
		t.Fatalf("code = %d, stderr = %q", code, errOut)
	}
	if !strings.Contains(out, "hot(room1)") || !strings.Contains(out, "hot(room3)") {
		t.Errorf("out = %q", out)
	}
	if strings.Contains(out, "hot(room2)") {
		t.Errorf("room2 is not hot: %q", out)
	}
}

func TestVerboseVsSummary(t *testing.T) {
	code, out, _ := runCLI(t, "-paper", "P", "-window", "500", "-windows", "1")
	if code != 0 {
		t.Fatalf("code = %d", code)
	}
	if !strings.Contains(out, "atoms") {
		t.Errorf("summary missing: %q", out)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCLI(t); code != 2 {
		t.Errorf("no args: code = %d", code)
	}
	if code, _, _ := runCLI(t, "-paper", "P", "-mode", "XX"); code != 1 {
		t.Errorf("bad mode: code = %d", code)
	}
	if code, _, _ := runCLI(t, "-program", "missing.lp", "-inpre", "a"); code != 1 {
		t.Errorf("missing program: code = %d", code)
	}
	dir := t.TempDir()
	progFile := filepath.Join(dir, "p.lp")
	os.WriteFile(progFile, []byte("p :- q(X)."), 0o644)
	if code, _, _ := runCLI(t, "-program", progFile); code != 1 {
		t.Errorf("missing inpre: code = %d", code)
	}
}

// TestDistributedLoopback is the end-to-end loopback integration: two
// in-process workers plus the CLI coordinator on localhost, whole pipeline,
// comparing the distributed run's answers against an in-process PR run on
// the identical deterministic stream.
func TestDistributedLoopback(t *testing.T) {
	w1, err := streamrule.NewWorkerServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w1.Serve()
	defer w1.Close()
	w2, err := streamrule.NewWorkerServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w2.Serve()
	defer w2.Close()

	args := []string{"-paper", "P", "-window", "1000", "-windows", "2", "-step", "500", "-seed", "7", "-v"}
	code, dOut, dErr := runCLI(t, append(args, "-workers", w1.Addr()+","+w2.Addr())...)
	if code != 0 {
		t.Fatalf("distributed run: code = %d, stderr = %q", code, dErr)
	}
	if !strings.Contains(dOut, "over 2 worker(s)") {
		t.Errorf("worker count missing: %q", dOut)
	}
	if !strings.Contains(dOut, "transport:") || !strings.Contains(dOut, "dict-hit=") {
		t.Errorf("transport stats missing: %q", dOut)
	}
	if strings.Contains(dOut, "remote=0 ") {
		t.Errorf("no window was served remotely: %q", dOut)
	}

	code, lOut, lErr := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("local run: code = %d, stderr = %q", code, lErr)
	}
	if got, want := answerLines(dOut), answerLines(lOut); !slices.Equal(got, want) {
		t.Errorf("distributed answers diverge from local PR\ndistributed: %v\nlocal:       %v", got, want)
	}
}

// TestDistributedLoopbackTLS runs the coordinator CLI against a mutual-TLS
// worker: certs loaded through the -tls-* flags, answers identical to the
// local run.
func TestDistributedLoopbackTLS(t *testing.T) {
	mat, err := tlstest.New()
	if err != nil {
		t.Fatal(err)
	}
	w, err := streamrule.NewWorkerServerTLS("127.0.0.1:0", mat.ServerTLS)
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve()
	defer w.Close()

	dir := t.TempDir()
	write := func(name string, pem []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, pem, 0o600); err != nil {
			t.Fatal(err)
		}
		return p
	}
	ca := write("ca.pem", mat.CAPEM)
	cert := write("client-cert.pem", mat.ClientCertPEM)
	key := write("client-key.pem", mat.ClientKeyPEM)

	args := []string{"-paper", "P", "-window", "800", "-windows", "2", "-seed", "7", "-v"}
	code, dOut, dErr := runCLI(t, append(args,
		"-workers", w.Addr(), "-tls-ca", ca, "-tls-cert", cert, "-tls-key", key)...)
	if code != 0 {
		t.Fatalf("TLS distributed run: code = %d, stderr = %q", code, dErr)
	}
	if strings.Contains(dOut, "remote=0 ") || strings.Contains(dOut, "fallback=2 ") {
		t.Errorf("windows did not complete remotely over TLS: %q", dOut)
	}
	code, lOut, lErr := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("local run: code = %d, stderr = %q", code, lErr)
	}
	if got, want := answerLines(dOut), answerLines(lOut); !slices.Equal(got, want) {
		t.Errorf("TLS distributed answers diverge from local PR\ndistributed: %v\nlocal:       %v", got, want)
	}

	// Without the client certificate the worker must refuse the handshake
	// and every window must fall back locally — never wrong answers.
	code, nOut, _ := runCLI(t, append(args, "-workers", w.Addr(), "-tls-ca", ca)...)
	if code != 0 {
		// NewDistributedEngine fails when no worker is reachable: also fine.
		return
	}
	if !strings.Contains(nOut, "remote=0 ") {
		t.Errorf("worker accepted a coordinator without a client cert: %q", nOut)
	}
}

// TestChaosFlag smoke-tests -chaos: the run must survive injected faults
// with correct answers and print the chaos stats line.
func TestChaosFlag(t *testing.T) {
	w, err := streamrule.NewWorkerServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve()
	defer w.Close()

	args := []string{"-paper", "P", "-window", "600", "-windows", "2", "-step", "300", "-seed", "7", "-v"}
	// The injector may refuse the engine-construction dial itself (its RNG
	// keys on the worker's ephemeral port, so one seed's draw is fixed for
	// the whole test process); retry with a fresh seed, as an operator
	// re-running the dev flag would.
	var code int
	var cOut, cErr string
	for attempt := 0; attempt < 25; attempt++ {
		seed := strconv.Itoa(42 + attempt)
		code, cOut, cErr = runCLI(t, append(args, "-workers", w.Addr(), "-chaos", seed, "-straggler", "2s")...)
		if code == 0 {
			break
		}
	}
	if code != 0 {
		t.Fatalf("chaos run: code = %d, stderr = %q", code, cErr)
	}
	if !strings.Contains(cOut, "chaos: injecting faults") || !strings.Contains(cOut, "chaos: refused-dials=") {
		t.Errorf("chaos lines missing: %q", cOut)
	}
	code, lOut, lErr := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("local run: code = %d, stderr = %q", code, lErr)
	}
	if got, want := answerLines(cOut), answerLines(lOut); !slices.Equal(got, want) {
		t.Errorf("chaos answers diverge from local PR\nchaos: %v\nlocal: %v", got, want)
	}
}

// answerLines extracts the per-window answer atoms from -v output, the
// lines that must agree between distributed and local runs.
func answerLines(out string) []string {
	var answers []string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "  answer ") {
			answers = append(answers, strings.TrimSpace(line))
		}
	}
	return answers
}

// TestServeMode drives the multi-tenant serving demo: tenants on a shared
// fleet, the ServerStats summary, and the per-tenant table.
func TestServeMode(t *testing.T) {
	code, out, errOut := runCLI(t, "-paper", "P", "-serve", "12", "-fleet", "2",
		"-window", "120", "-step", "40", "-windows", "2", "-budget", "256")
	if code != 0 {
		t.Fatalf("code = %d, stderr = %q", code, errOut)
	}
	if !strings.Contains(out, "serve: 12 tenants on 2 shared workers") {
		t.Errorf("serve summary missing: %q", out)
	}
	// 240 items, size 120 step 40: emissions at 120,160,200,240 = 4 per tenant.
	if !strings.Contains(out, "48 windows") {
		t.Errorf("window total missing: %q", out)
	}
	if !strings.Contains(out, "shed=0 errors=0") {
		t.Errorf("unhealthy fleet line: %q", out)
	}
	if !strings.Contains(out, "p99") || !strings.Contains(out, "live-atoms") {
		t.Errorf("stats table missing columns: %q", out)
	}
	if !strings.Contains(out, "more tenants elided") {
		t.Errorf("per-tenant table not elided at 12 tenants: %q", out)
	}
}
