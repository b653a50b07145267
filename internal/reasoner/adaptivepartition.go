// AdaptivePartitioner: the mutable sibling of AtomPartitioner. The static
// partitioners fix their layout at construction time; the adaptive one lets
// the rebalancer raise a single community's hash fan-out (or install a finer
// community plan) between windows, so partitioning becomes a runtime
// concern. Routing is identical to AtomPartitioner — Algorithm 1 at the
// community level, a proven key hash at the atom level — so every layout the
// rebalancer can reach is one the static differentials already validate.

package reasoner

import (
	"fmt"

	"streamrule/internal/atomdep"
	"streamrule/internal/core"
	"streamrule/internal/dfp"
	"streamrule/internal/rdf"
)

// AdaptivePartitioner routes by community plan with a per-community,
// mutable hash fan-out. All communities start at fan-out 1 (the plain plan
// partitioner); the rebalancer widens overloaded communities whose
// derivations the atom-level analysis proved splittable. Not safe for
// concurrent mutation — layout changes happen between windows, like every
// other rebalancing action.
type AdaptivePartitioner struct {
	plan    *core.Plan
	keys    *atomdep.Analysis
	arities dfp.Arities
	// base[c] is the first global partition index of community c; width[c]
	// its current fan-out (1 = unsplit).
	base, width []int
	total       int
}

// NewAdaptivePartitioner builds the runtime-adjustable partitioner over a
// community plan and its atom-level key analysis. Every community starts
// with fan-out 1.
func NewAdaptivePartitioner(plan *core.Plan, keys *atomdep.Analysis, arities dfp.Arities) *AdaptivePartitioner {
	p := &AdaptivePartitioner{plan: plan, keys: keys, arities: arities}
	p.width = make([]int, len(plan.Communities))
	for c := range p.width {
		p.width[c] = 1
	}
	p.reindex()
	return p
}

func (p *AdaptivePartitioner) reindex() {
	p.base = p.base[:0]
	p.total = 0
	for _, w := range p.width {
		p.base = append(p.base, p.total)
		p.total += w
	}
}

// NumPartitions implements Partitioner.
func (p *AdaptivePartitioner) NumPartitions() int { return p.total }

// NumCommunities returns the number of plan communities.
func (p *AdaptivePartitioner) NumCommunities() int { return len(p.width) }

// Plan returns the current community plan.
func (p *AdaptivePartitioner) Plan() *core.Plan { return p.plan }

// Fanout returns community c's current hash fan-out.
func (p *AdaptivePartitioner) Fanout(c int) int { return p.width[c] }

// Splittable reports whether the atom-level analysis proved community c
// hash-splittable (a single join key per derivation).
func (p *AdaptivePartitioner) Splittable(c int) bool { return p.keys.KeysFor(c) != nil }

// CommunityOf maps a global partition index back to its community (-1 when
// out of range).
func (p *AdaptivePartitioner) CommunityOf(gp int) int {
	if gp < 0 || gp >= p.total {
		return -1
	}
	for c := len(p.base) - 1; c >= 0; c-- {
		if gp >= p.base[c] {
			return c
		}
	}
	return -1
}

// SetFanout installs fan-out m for community c. m > 1 requires the
// community to be splittable. Partition indexes shift; the caller (the
// rebalancer) must re-layout sessions afterwards.
func (p *AdaptivePartitioner) SetFanout(c, m int) error {
	if c < 0 || c >= len(p.width) {
		return fmt.Errorf("reasoner: community %d of %d", c, len(p.width))
	}
	if m < 1 {
		return fmt.Errorf("reasoner: fan-out %d for community %d", m, c)
	}
	if m > 1 && !p.Splittable(c) {
		return fmt.Errorf("reasoner: community %d is not atom-splittable", c)
	}
	p.width[c] = m
	p.reindex()
	return nil
}

// withFanout returns a candidate copy with community c at fan-out m: it
// shares the immutable plan/analysis but owns its width/base, so the
// rebalancer's cost model can route a window through it without touching
// the live layout.
func (p *AdaptivePartitioner) withFanout(c, m int) *AdaptivePartitioner {
	cand := &AdaptivePartitioner{plan: p.plan, keys: p.keys, arities: p.arities}
	cand.width = append([]int(nil), p.width...)
	cand.width[c] = m
	cand.reindex()
	return cand
}

// Partition implements Partitioner: identical routing to AtomPartitioner,
// with per-community widths instead of one global fan-out.
func (p *AdaptivePartitioner) Partition(window []rdf.Triple) ([][]rdf.Triple, int) {
	parts := make([][]rdf.Triple, p.total)
	skipped := 0
	for _, t := range window {
		cs := p.plan.CommunitiesOf(t.P)
		if len(cs) == 0 {
			skipped++
			continue
		}
		for _, c := range cs {
			if p.width[c] == 1 {
				parts[p.base[c]] = append(parts[p.base[c]], t)
				continue
			}
			pos, ok := p.keys.KeysFor(c)[t.P]
			if !ok {
				// Predicate without a key in a split community: route to
				// every bucket to stay sound (the analysis assigns every
				// input predicate a key, so this is belt-and-braces).
				for b := 0; b < p.width[c]; b++ {
					parts[p.base[c]+b] = append(parts[p.base[c]+b], t)
				}
				continue
			}
			key := t.S
			if pos == 1 && p.arities[t.P] >= 2 {
				key = t.O
			}
			b := atomdep.Bucket(key, p.width[c])
			parts[p.base[c]+b] = append(parts[p.base[c]+b], t)
		}
	}
	return parts, skipped
}
