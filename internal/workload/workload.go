// Package workload generates the synthetic RDF streams of the paper's
// evaluation (§IV): random triples whose predicates range over inpre(P) and
// whose subject/object values are numbers bounded by the window size n.
//
// The paper's generator, taken literally, draws entity values uniformly from
// [0, n), which makes joins between predicates (same city observed by two
// sensors) vanishingly rare at large n and the accuracy comparison vacuous.
// We therefore scale entity domains as n/EntityDivisor with divisor 6 — one
// observation per entity per predicate on average, so joins both happen and
// are genuinely lost when a window is split carelessly. A much larger
// divisor would make every partition re-derive every event independently and
// hide the accuracy loss the paper demonstrates; EXPERIMENTS.md records the
// choice.
package workload

import (
	"fmt"
	"math/rand"

	"streamrule/internal/rdf"
)

// FieldGen produces one subject or object value; n is the window size being
// generated, so domains can scale with the window per the paper.
type FieldGen func(rng *rand.Rand, n int) string

// NumRange returns values uniform in [lo, hi).
func NumRange(lo, hi int64) FieldGen {
	return func(rng *rand.Rand, _ int) string {
		return fmt.Sprintf("%d", lo+rng.Int63n(hi-lo))
	}
}

// Choice returns one of the given values uniformly.
func Choice(values ...string) FieldGen {
	return func(rng *rand.Rand, _ int) string {
		return values[rng.Intn(len(values))]
	}
}

// Entity returns identifiers "<prefix><k>" with k uniform in
// [0, max(1, n/divisor)): an entity pool whose size scales with the window.
func Entity(prefix string, divisor int) FieldGen {
	return func(rng *rand.Rand, n int) string {
		size := n / divisor
		if size < 1 {
			size = 1
		}
		return fmt.Sprintf("%s%d", prefix, rng.Intn(size))
	}
}

// TripleSpec describes how to generate triples of one predicate.
type TripleSpec struct {
	Pred string
	// S and O generate the subject and object. A nil O produces the unary
	// convention object "true" (ignored by the data format processor for
	// arity-1 predicates).
	S, O FieldGen
	// Weight is the relative frequency of the predicate (default 1).
	Weight int
}

// Generator produces windows of synthetic triples. It is deterministic for
// a given seed and sequence of calls.
type Generator struct {
	specs []TripleSpec
	cum   []int
	total int
	rng   *rand.Rand
}

// NewGenerator builds a generator from specs with the given seed.
func NewGenerator(seed int64, specs []TripleSpec) (*Generator, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("no triple specs")
	}
	g := &Generator{specs: specs, rng: rand.New(rand.NewSource(seed))}
	for _, s := range specs {
		if s.Pred == "" || s.S == nil {
			return nil, fmt.Errorf("spec for %q must have a predicate and a subject generator", s.Pred)
		}
		w := s.Weight
		if w <= 0 {
			w = 1
		}
		g.total += w
		g.cum = append(g.cum, g.total)
	}
	return g, nil
}

// Window generates n triples.
func (g *Generator) Window(n int) []rdf.Triple {
	out := make([]rdf.Triple, n)
	for i := range out {
		w := g.rng.Intn(g.total)
		k := 0
		for g.cum[k] <= w {
			k++
		}
		s := g.specs[k]
		t := rdf.Triple{S: s.S(g.rng, n), P: s.Pred, O: "true"}
		if s.O != nil {
			t.O = s.O(g.rng, n)
		}
		out[i] = t
	}
	return out
}

// EntityDivisor is the default ratio between window size and entity-pool
// size used by the paper workload specs: with six uniform predicates, a
// divisor of six yields about one observation per entity per predicate.
const EntityDivisor = 6

// PaperTraffic returns the workload of the paper's evaluation for programs P
// and P' (inpre(P) = inpre(P')): uniform predicate choice over the six input
// predicates, city and car pools scaling with the window, and value ranges
// tuned so that every rule of Listing 1 fires with realistic frequency
// (speeds below 20 about a third of the time, car counts above 40 about half
// the time, a sixth of the cars stopped, smoke levels {high, low, none}).
func PaperTraffic() []TripleSpec {
	city := Entity("city", EntityDivisor)
	car := Entity("car", EntityDivisor)
	return []TripleSpec{
		{Pred: "average_speed", S: city, O: NumRange(0, 60)},
		{Pred: "car_number", S: city, O: NumRange(0, 80)},
		{Pred: "traffic_light", S: city},
		{Pred: "car_in_smoke", S: car, O: Choice("high", "low", "none")},
		{Pred: "car_speed", S: car, O: NumRange(0, 6)},
		{Pred: "car_location", S: car, O: city},
	}
}

// ResidualTraffic is the residual-solver workload: the paper's six input
// predicates, retuned so that the incident-response rules of
// bench.ProgramResidual leave a large residual program for the solver on
// every window, with an adversarial partition skew the paper's uniform mix
// never exhibits.
//
// Two levers differ from PaperTraffic. First, the rates are hostile to the
// stratified fast path: cities are slower and more crowded (more
// traffic_jam atoms), smoke is "high" half the time and cars crawl at 0-2
// (more car_fire atoms), and every jam/fire atom drags its even-loop and
// choice rules into the residual program. Second, the car-cluster
// predicates carry 4x the weight of the city-cluster ones, so a
// dependency-partitioned PR sees one partition receive ~80% of the window —
// the skew stresses the critical-path accounting and the per-partition
// solver exactly where random partitioning would hide it.
func ResidualTraffic() []TripleSpec {
	city := Entity("city", EntityDivisor)
	// A denser car pool (half the entity spread) multiplies the
	// smoke×speed×location joins that feed car_fire.
	car := Entity("car", 2*EntityDivisor)
	return []TripleSpec{
		{Pred: "average_speed", S: city, O: NumRange(0, 40)},
		{Pred: "car_number", S: city, O: NumRange(20, 80)},
		{Pred: "traffic_light", S: city},
		{Pred: "car_in_smoke", S: car, O: Choice("high", "high", "low", "none"), Weight: 4},
		{Pred: "car_speed", S: car, O: NumRange(0, 3), Weight: 4},
		{Pred: "car_location", S: car, O: city, Weight: 4},
	}
}

// TenantTraffic returns the paper workload with tenant-prefixed entity
// vocabularies: tenant "t42" observes cities "t42city3" and cars "t42car7",
// so no two tenants share a single entity symbol. Across N tenants the
// aggregate vocabulary grows with N — the adversarial case for any shared
// interning state, which per-tenant tables must absorb without leaking a
// symbol into the process-wide default table.
func TenantTraffic(tenant string) []TripleSpec {
	city := Entity(tenant+"city", EntityDivisor)
	car := Entity(tenant+"car", EntityDivisor)
	return []TripleSpec{
		{Pred: "average_speed", S: city, O: NumRange(0, 60)},
		{Pred: "car_number", S: city, O: NumRange(0, 80)},
		{Pred: "traffic_light", S: city},
		{Pred: "car_in_smoke", S: car, O: Choice("high", "low", "none")},
		{Pred: "car_speed", S: car, O: NumRange(0, 6)},
		{Pred: "car_location", S: car, O: city},
	}
}
