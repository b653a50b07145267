package solve

import (
	"math/rand"
	"testing"
	"testing/quick"

	"streamrule/internal/asp/ast"
	"streamrule/internal/asp/ground"
)

// cdnlKeys solves with the CDNL engine and returns sorted model key sets.
func cdnlKeys(t *testing.T, gp *ground.Program) ([][]string, *Result) {
	t.Helper()
	res, err := Solve(gp, Options{CDNL: true})
	if err != nil {
		t.Fatal(err)
	}
	return modelKeys(res), res
}

func sameModels(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slicesEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestCDNLMatchesWorklist pins the CDNL engine to the default engine on the
// deterministic programs the rest of the suite exercises.
func TestCDNLMatchesWorklist(t *testing.T) {
	srcs := map[string]string{
		"even loop":      "a :- not b.\nb :- not a.",
		"odd loop":       "p :- not p.",
		"constraint":     "a :- not b.\nb :- not a.\n:- a.",
		"disjunction":    "a | b.",
		"disj cycle":     "a | b.\na :- b.\nb :- a.",
		"choice":         "{a; b} :- not c.\nc :- not d.\nd :- not c.",
		"positive loop":  "a :- not b.\nb :- not a.\np :- q, a.\nq :- p, a.\np :- not a.",
		"three loops":    "a :- not b.\nb :- not a.\nc :- not d.\nd :- not c.\ne :- not f.\nf :- not e.\n:- a, c, e.",
		"supportedness":  "a :- not b.\nb :- not a.\nx :- a.\nx :- b.\n:- not x.",
		"deep negation":  "a :- not b.\nb :- not c.\nc :- not d.\nd :- not a.",
		"guarded choice": "g :- not h.\nh :- not g.\n1 {a; b; c} 2 :- g.\n:- a, c.",
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			gp := groundSrc(t, src)
			want, err := Solve(gp, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, _ := cdnlKeys(t, gp)
			if !sameModels(got, modelKeys(want)) {
				t.Fatalf("CDNL models %v, worklist %v", got, modelKeys(want))
			}
		})
	}
}

func TestCDNLMaxModels(t *testing.T) {
	gp := groundSrc(t, "a :- not b.\nb :- not a.\nc :- not d.\nd :- not c.")
	res, err := Solve(gp, Options{CDNL: true, MaxModels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 2 {
		t.Fatalf("MaxModels=2 returned %d models", len(res.Models))
	}
}

// randChoiceProgram mirrors the TestQuickChoiceMatchesBruteForce generator but
// over a slightly wider universe, mixing normal, disjunctive, constraint, and
// bounded choice rules.
func randChoiceProgram(rng *rand.Rand, names []string, maxRules int) *ground.Program {
	gp := &ground.Program{}
	nRules := 1 + rng.Intn(maxRules)
	for i := 0; i < nRules; i++ {
		gp.Rules = append(gp.Rules, randChoiceRule(rng, names))
	}
	return gp
}

func randChoiceRule(rng *rand.Rand, names []string) ast.Rule {
	var r ast.Rule
	kind := rng.Intn(3) // 0 constraint-ish, 1 normal/disjunctive, 2 choice
	switch kind {
	case 2:
		r.Choice = true
		nHead := 1 + rng.Intn(2)
		for j := 0; j < nHead; j++ {
			r.Head = append(r.Head, ast.NewAtom(names[rng.Intn(len(names))]))
		}
		r.Lower, r.Upper = ast.UnboundedChoice, ast.UnboundedChoice
		if rng.Intn(2) == 0 {
			r.Lower = rng.Intn(2)
		}
		if rng.Intn(2) == 0 {
			r.Upper = r.Lower
			if r.Upper < 0 {
				r.Upper = rng.Intn(2)
			}
			r.Upper += rng.Intn(2)
		}
	default:
		nHead := rng.Intn(2 + kind)
		for j := 0; j < nHead; j++ {
			r.Head = append(r.Head, ast.NewAtom(names[rng.Intn(len(names))]))
		}
	}
	nBody := rng.Intn(3)
	if len(r.Head) == 0 && nBody == 0 {
		nBody = 1
	}
	for j := 0; j < nBody; j++ {
		a := ast.NewAtom(names[rng.Intn(len(names))])
		if rng.Intn(2) == 0 {
			r.Body = append(r.Body, ast.Pos(a))
		} else {
			r.Body = append(r.Body, ast.Not(a))
		}
	}
	return r
}

// Property: the CDNL engine agrees with brute force (and hence with the other
// two engines, which have their own brute-force gates) on random programs.
func TestQuickCDNLMatchesBruteForce(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gp := randChoiceProgram(rng, names, 6)
		res, err := Solve(gp, Options{CDNL: true})
		if err != nil {
			return false
		}
		return sameModels(modelKeys(res), bruteForceChoice(gp))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestCDNLUnfoundedSkipsStabilityChecks pins the tentpole perf property on a
// positive-loop program: the worklist engine completes candidates with
// loop-supported atoms and pays a reduct test to reject them, while CDNL
// falsifies the loop during propagation and never runs a stability check.
func TestCDNLUnfoundedSkipsStabilityChecks(t *testing.T) {
	src := `
a :- not b.
b :- not a.
p :- q, a.
q :- p, a.
p :- not a.
`
	gp := groundSrc(t, src)
	wl, err := Solve(gp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, res := cdnlKeys(t, gp)
	if !sameModels(got, modelKeys(wl)) {
		t.Fatalf("CDNL models %v, worklist %v", got, modelKeys(wl))
	}
	if res.Stats.StabilityChecks != 0 {
		t.Errorf("CDNL ran %d stability checks on a non-disjunctive program, want 0", res.Stats.StabilityChecks)
	}
	if wl.Stats.StabilityChecks == 0 {
		t.Fatal("worklist oracle ran no stability checks; program no longer exercises the loop")
	}
	if res.Stats.StabilityChecks >= wl.Stats.StabilityChecks {
		t.Errorf("StabilityChecks: CDNL %d, worklist %d; want a strict drop",
			res.Stats.StabilityChecks, wl.Stats.StabilityChecks)
	}
	if res.Stats.LoopNogoods == 0 {
		t.Error("expected loop nogoods to be learned on a positive-loop program")
	}
}

// TestCDNLBackjumps crafts a conflict whose asserting clause only involves the
// first and third decisions, so resolution must jump over the second decision
// level — the non-chronological move the worklist engine cannot make. The
// decision order u1, u2, u3 is pinned through the initial activity, which
// follows occurrence counts: the r and q rules pad u1 (7) above u2 (5) above
// u3 (4) above every other atom.
func TestCDNLBackjumps(t *testing.T) {
	src := `
u1 :- not v1.
v1 :- not u1.
u2 :- not v2.
v2 :- not u2.
u3 :- not v3.
v3 :- not u3.
p :- u1, u3.
:- u3, p.
r1 :- u1.
r2 :- u1.
r3 :- u1.
r4 :- u1.
q1 :- u2.
q2 :- u2.
q3 :- u2.
`
	gp := groundSrc(t, src)
	want, err := Solve(gp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, res := cdnlKeys(t, gp)
	if !sameModels(got, modelKeys(want)) {
		t.Fatalf("CDNL models %v, worklist %v", got, modelKeys(want))
	}
	if res.Stats.Conflicts == 0 || res.Stats.Learned == 0 {
		t.Fatalf("expected conflicts and learned clauses, got %+v", res.Stats)
	}
	if res.Stats.Backjumps == 0 {
		t.Errorf("expected a non-chronological backjump, got %+v", res.Stats)
	}
}
