package solve

import (
	"slices"
	"testing"

	"streamrule/internal/asp/ast"
	"streamrule/internal/asp/ground"
)

// fuzzAtomNames is the atom universe of the fuzzed residual programs: small
// enough that the brute-force oracle stays cheap (well under its ~16-atom
// practicality bound) and the default interning table stays bounded across
// fuzz iterations.
var fuzzAtomNames = []string{"a", "b", "c", "d", "e", "f", "g", "h"}

// decodeResidualProgram turns fuzz bytes into a small residual ground
// program: a stream of rule records, each selecting a kind (normal /
// disjunctive / constraint / bounded choice / deep negation chain /
// guarded positive loop) and drawing head and body atoms from a fixed
// universe. The chain and loop kinds emit several coupled rules at once —
// the shapes that stress unfounded-set detection interleaved with even and
// odd negation cycles. Every byte string decodes to a valid program, so
// the fuzzer explores program space rather than parser space.
func decodeResidualProgram(data []byte) *ground.Program {
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	atom := func(b byte) ast.Atom { return ast.NewAtom(fuzzAtomNames[int(b)%len(fuzzAtomNames)]) }

	gp := &ground.Program{}
	for len(gp.Rules) < 12 {
		kind, ok := next()
		if !ok {
			break
		}
		var r ast.Rule
		switch kind % 6 {
		case 0: // normal rule, one head
			h, ok := next()
			if !ok {
				return gp
			}
			r.Head = append(r.Head, atom(h))
		case 1: // disjunctive rule, two heads
			h1, ok1 := next()
			h2, ok2 := next()
			if !ok1 || !ok2 {
				return gp
			}
			r.Head = append(r.Head, atom(h1), atom(h2))
		case 2: // integrity constraint (empty head, forced body below)
		case 3: // choice rule with bounds drawn from the data
			r.Choice = true
			h, ok := next()
			if !ok {
				return gp
			}
			r.Head = append(r.Head, atom(h))
			if b, ok := next(); ok && b%2 == 0 {
				r.Head = append(r.Head, atom(b/2))
			}
			r.Lower, r.Upper = ast.UnboundedChoice, ast.UnboundedChoice
			if b, ok := next(); ok {
				switch b % 3 {
				case 0:
					r.Lower = int(b/3) % (len(r.Head) + 1)
				case 1:
					r.Upper = int(b/3) % (len(r.Head) + 1)
				default:
					r.Lower = int(b/3) % (len(r.Head) + 1)
					r.Upper = r.Lower
				}
			}
		case 4: // deep negation chain: a_i :- not a_{i+1}, cyclic
			s, ok1 := next()
			k, ok2 := next()
			if !ok1 || !ok2 {
				return gp
			}
			depth := 2 + int(k)%5 // 2..6: even depths are loops, odd are absurd
			for i := 0; i < depth; i++ {
				gp.Rules = append(gp.Rules, ast.Rule{
					Head: []ast.Atom{atom(s + byte(i))},
					Body: []ast.Literal{ast.Not(atom(s + byte(i+1)%byte(depth)))},
				})
			}
			continue
		case 5: // positive loop with an external escape, guarded by g
			pb, ok1 := next()
			qb, ok2 := next()
			gb, ok3 := next()
			if !ok1 || !ok2 || !ok3 {
				return gp
			}
			p, q, g := atom(pb), atom(qb), atom(gb)
			gp.Rules = append(gp.Rules,
				ast.Rule{Head: []ast.Atom{p}, Body: []ast.Literal{ast.Pos(q), ast.Pos(g)}},
				ast.Rule{Head: []ast.Atom{q}, Body: []ast.Literal{ast.Pos(p), ast.Pos(g)}},
				ast.Rule{Head: []ast.Atom{p}, Body: []ast.Literal{ast.Not(g)}},
			)
			continue
		}
		nBody, ok := next()
		if !ok {
			return gp
		}
		n := int(nBody) % 4
		if len(r.Head) == 0 && n == 0 {
			n = 1 // a constraint with an empty body is statically absurd
		}
		for j := 0; j < n; j++ {
			b, ok := next()
			if !ok {
				return gp
			}
			a := atom(b)
			if b&0x80 != 0 {
				r.Body = append(r.Body, ast.Not(a))
			} else {
				r.Body = append(r.Body, ast.Pos(a))
			}
		}
		gp.Rules = append(gp.Rules, r)
	}
	return gp
}

// FuzzSolveResidual feeds random residual ground programs to all three
// propagation engines and requires identical answer sets (as sorted key
// multisets). The worklist and naive engines must additionally agree on
// stability verdicts — every candidate both submit passes or fails the same
// reduct test, pinned by equal model AND stability-check counts; the CDNL
// engine is exempt from that count (skipping those checks is its contract)
// and is held to the naive engine's models.
// Every program — bounded choice rules included — is checked against the
// brute-force reduct-minimality oracle.
func FuzzSolveResidual(f *testing.F) {
	// Seeds covering each rule kind and the classic solver shapes: an even
	// loop, an odd loop (no models), a pinned loop, a disjunctive pair, a
	// bounded choice, a support loop, deep even/odd negation chains, and a
	// guarded positive loop interleaved with a chain.
	f.Add([]byte{0, 0, 1, 0x80 | 1, 0, 1, 1, 0x80})          // a :- not b.  b :- not a.
	f.Add([]byte{0, 0, 1, 0x80})                             // a :- not a. (odd loop)
	f.Add([]byte{0, 0, 1, 0x80 | 1, 0, 1, 1, 0x80, 2, 1, 1}) // even loop + :- b.
	f.Add([]byte{1, 0, 1, 0})                                // a | b.
	f.Add([]byte{3, 0, 2, 5, 0, 0, 0, 1, 0x80 | 2})          // bounded choice + body
	f.Add([]byte{0, 0, 1, 1, 0, 1, 1, 0, 0, 2, 1, 0x80 | 3}) // positive loop (unfounded)
	f.Add([]byte{4, 0, 2})                                   // 4-deep even negation chain
	f.Add([]byte{4, 0, 3})                                   // 5-deep odd negation chain
	f.Add([]byte{5, 0, 1, 6})                                // guarded positive loop
	f.Add([]byte{4, 2, 1, 5, 0, 1, 4})                       // odd chain + positive loop, sharing atoms
	f.Fuzz(func(t *testing.T, data []byte) {
		gp := decodeResidualProgram(data)
		if len(gp.Rules) == 0 {
			t.Skip()
		}
		ev, err := Solve(gp, Options{})
		if err != nil {
			t.Fatalf("event engine: %v", err)
		}
		nv, err := Solve(gp, Options{NaivePropagation: true})
		if err != nil {
			t.Fatalf("naive engine: %v", err)
		}
		evKeys, nvKeys := modelKeys(ev), modelKeys(nv)
		if len(evKeys) != len(nvKeys) {
			t.Fatalf("model count: event %v, naive %v\nrules: %v", evKeys, nvKeys, gp.Rules)
		}
		for i := range evKeys {
			if !slices.Equal(evKeys[i], nvKeys[i]) {
				t.Fatalf("model %d: event %v, naive %v\nrules: %v", i, evKeys[i], nvKeys[i], gp.Rules)
			}
		}
		// Both engines enumerate the same propagation-consistent total
		// assignments, so their stable() verdicts must agree candidate for
		// candidate: equal models (above) AND equal candidate counts.
		if ev.Stats.StabilityChecks != nv.Stats.StabilityChecks {
			t.Fatalf("stability checks: event %d, naive %d\nrules: %v",
				ev.Stats.StabilityChecks, nv.Stats.StabilityChecks, gp.Rules)
		}
		cdl, err := Solve(gp, Options{CDNL: true})
		if err != nil {
			t.Fatalf("CDNL engine: %v", err)
		}
		cdKeys := modelKeys(cdl)
		if len(cdKeys) != len(nvKeys) {
			t.Fatalf("CDNL model count: %v, naive %v\nrules: %v", cdKeys, nvKeys, gp.Rules)
		}
		for i := range nvKeys {
			if !slices.Equal(cdKeys[i], nvKeys[i]) {
				t.Fatalf("CDNL model %d: %v, naive %v\nrules: %v", i, cdKeys[i], nvKeys[i], gp.Rules)
			}
		}
		want := bruteForceChoice(gp)
		if len(evKeys) != len(want) {
			t.Fatalf("vs brute force: got %v, want %v\nrules: %v", evKeys, want, gp.Rules)
		}
		for i := range want {
			if !slices.Equal(evKeys[i], want[i]) {
				t.Fatalf("model %d: got %v, brute force %v\nrules: %v", i, evKeys[i], want[i], gp.Rules)
			}
		}
	})
}
