// The adaptive rebalancer: partitioning as a runtime concern. The paper's
// community decomposition (§V) is computed once at design time; under an
// adversarially skewed stream that leaves k−1 workers idle, a static layout
// wastes the fleet. The rebalancer closes the loop: it observes every
// window's per-partition load (cp-ms and routed items — the rows fixed up
// by the fallback-attribution work in this package), detects sustained
// skew across workers, and adapts BETWEEN windows, when no request is in
// flight:
//
//   - Move: migrate a hot partition to a cold worker (any partitioner).
//   - Split: widen the hottest community's hash fan-out along the proven
//     atom-level key (AdaptivePartitioner only).
//
// Every split candidate is priced with the paper's duplication-share
// analysis before it is accepted: the candidate routes the last observed
// window, and a cut whose extra replicated traffic exceeds the projected
// critical-path gain is refused. Migration itself rides the session
// machinery of the wire protocol — affected sessions are retired, so the
// next window redials, reships full sub-windows, and replays dictionaries;
// no answers are dropped and no new protocol is needed.

package reasoner

import "fmt"

// RebalanceOptions tunes the adaptive rebalancer (DPROptions.Rebalance).
// The zero value is usable: every field falls back to the documented
// default.
type RebalanceOptions struct {
	// SkewThreshold is the max/mean per-worker load ratio that counts as a
	// skewed window (default 1.5). Idle workers push the mean down, so an
	// unused worker raises the measured skew — by design.
	SkewThreshold float64
	// Sustain is the number of CONSECUTIVE skewed windows required before
	// the rebalancer acts (default 2): one bursty window must not thrash
	// the layout.
	Sustain int
	// Cooldown is the number of windows to observe after an action (or a
	// refusal) before acting again (default 2) — migrations cost a
	// full-window reship, so decisions get time to show in the stats.
	Cooldown int
	// MaxFanout caps a single community's hash fan-out (0 = the current
	// number of workers).
	MaxFanout int
	// MinWindowItems skips skew detection on windows routing fewer items
	// (default 0 = observe everything): tiny windows have noisy ratios.
	MinWindowItems int
}

func (o RebalanceOptions) skewThreshold() float64 {
	if o.SkewThreshold > 0 {
		return o.SkewThreshold
	}
	return 1.5
}

func (o RebalanceOptions) sustain() int {
	if o.Sustain > 0 {
		return o.Sustain
	}
	return 2
}

func (o RebalanceOptions) cooldown() int {
	if o.Cooldown > 0 {
		return o.Cooldown
	}
	return 2
}

// RebalanceStats counts the rebalancer's decisions since construction.
type RebalanceStats struct {
	// Observations counts windows the rebalancer inspected.
	Observations int64
	// Moves counts partition migrations between workers.
	Moves int64
	// Splits counts accepted community hash splits.
	Splits int64
	// RefusedSplits counts split candidates rejected by the duplication
	// cost model (replication cost exceeded the projected gain).
	RefusedSplits int64
	// Joins/Leaves count elastic fleet membership changes (AddWorker /
	// RemoveWorker) — these tick even without a rebalancer configured.
	Joins, Leaves int64
	// LastAction describes the most recent decision, for logs.
	LastAction string
}

// rebalancer holds the runtime state of the adaptive loop: per-partition
// load EWMA, the skew streak, and the post-action cooldown.
type rebalancer struct {
	opts     RebalanceOptions
	stats    RebalanceStats
	loadEwma []float64
	streak   int
	cooldown int
}

func newRebalancer(opts RebalanceOptions) *rebalancer {
	return &rebalancer{opts: opts}
}

// step runs one observation+decision round. It is called by Collect only at
// a drained-pipeline point (no windows in flight), so layout mutations are
// safe. It never fails the window: decision errors are recorded in
// LastAction and the static layout keeps working.
func (rb *rebalancer) step(dpr *DPR) {
	loads := dpr.lastLoads
	if len(loads) == 0 {
		return
	}
	rb.stats.Observations++

	// This window's per-partition weights: cp-ns when the workers reported
	// compute times, routed items otherwise (deterministic fallback).
	weights := make([]float64, len(loads))
	var cpSum int64
	items := 0
	for _, pl := range loads {
		cpSum += pl.CP.Nanoseconds()
		items += pl.Items
	}
	for p, pl := range loads {
		if cpSum > 0 {
			weights[p] = float64(pl.CP.Nanoseconds())
		} else {
			weights[p] = float64(pl.Items)
		}
	}
	// EWMA-smooth against the previous rounds; a partition-count change
	// (a split) resets the history.
	if len(rb.loadEwma) != len(weights) {
		rb.loadEwma = weights
	} else {
		for p := range weights {
			rb.loadEwma[p] = 0.5*rb.loadEwma[p] + 0.5*weights[p]
		}
	}

	if rb.opts.MinWindowItems > 0 && items < rb.opts.MinWindowItems {
		rb.streak = 0
		return
	}

	// Per-worker load over ALL sessions: an idle worker contributes zero
	// and therefore raises the measured skew, which is exactly what should
	// draw work toward it.
	assign := make([]int, len(rb.loadEwma))
	perSession := make([]float64, len(dpr.sessions))
	for si, ps := range dpr.sessions {
		for _, p := range ps.parts {
			if p < len(assign) {
				assign[p] = si
				perSession[si] += rb.loadEwma[p]
			}
		}
	}
	var maxLoad, sum float64
	hotSession := 0
	for si, l := range perSession {
		sum += l
		if l > maxLoad {
			maxLoad, hotSession = l, si
		}
	}
	mean := sum / float64(len(perSession))
	if mean <= 0 {
		return
	}
	if maxLoad/mean < rb.opts.skewThreshold() {
		rb.streak = 0
		if rb.cooldown > 0 {
			rb.cooldown--
		}
		return
	}
	rb.streak++
	if rb.cooldown > 0 {
		rb.cooldown--
		return
	}
	if rb.streak < rb.opts.sustain() {
		return
	}

	// When the hot worker's load is one indivisible partition that alone
	// exceeds threshold x mean, no move can bring its host below the skew
	// threshold — prefer the split (which can actually divide it) and only
	// fall back to a move when the split is refused or unavailable.
	// Otherwise moves, which never replicate traffic, go first.
	if rb.preferSplit(dpr, hotSession, mean) {
		if rb.trySplit(dpr, assign, hotSession) {
			return
		}
		rb.tryMove(dpr, assign, perSession, hotSession)
		return
	}
	if rb.tryMove(dpr, assign, perSession, hotSession) {
		return
	}
	rb.trySplit(dpr, assign, hotSession)
}

// preferSplit reports whether the hot worker's skew is dominated by a
// single partition a split could divide: its hottest partition alone
// carries more than threshold x mean (so wherever a move lands it, the
// host stays skewed) and the partitioner has a split left to offer.
// Without this preference the rebalancer burns reship windows shuffling
// marginal partitions while the one hot partition stays whole.
func (rb *rebalancer) preferSplit(dpr *DPR, hot int, mean float64) bool {
	hottest, hw := -1, -1.0
	for _, p := range dpr.sessions[hot].parts {
		if w := rb.loadEwma[p]; w > hw {
			hottest, hw = p, w
		}
	}
	if hottest < 0 || hw < rb.opts.skewThreshold()*mean {
		return false
	}
	ap, ok := dpr.part.(*AdaptivePartitioner)
	if !ok {
		return false
	}
	c := ap.CommunityOf(hottest)
	if c < 0 {
		return false
	}
	maxFanout := rb.opts.MaxFanout
	if maxFanout <= 0 {
		maxFanout = len(dpr.sessions)
	}
	return ap.Splittable(c) && ap.Fanout(c) < maxFanout
}

// tryMove migrates the hottest partition of the hottest worker to the
// coldest worker, if that meaningfully lowers the maximum worker load.
// Works with any partitioner — it only touches the assignment. The move
// must be projected to cut the max by at least 10%: the load inputs are
// noisy wall-clock samples, every move costs the next window a full
// reship, and without the margin the rebalancer churns marginal moves
// instead of reaching for the split the layout actually needs.
func (rb *rebalancer) tryMove(dpr *DPR, assign []int, perSession []float64, hot int) bool {
	if len(dpr.sessions[hot].parts) < 2 {
		return false
	}
	cold := 0
	for si, l := range perSession {
		if l < perSession[cold] {
			cold = si
		}
	}
	if cold == hot {
		return false
	}
	hottest, hw := -1, -1.0
	for _, p := range dpr.sessions[hot].parts {
		if w := rb.loadEwma[p]; w > hw {
			hottest, hw = p, w
		}
	}
	if hottest < 0 {
		return false
	}
	newHot := perSession[hot] - hw
	newCold := perSession[cold] + hw
	if max(newHot, newCold) >= 0.9*perSession[hot] {
		return false
	}
	assign[hottest] = cold
	if err := dpr.applyLayout(assign); err != nil {
		rb.stats.LastAction = fmt.Sprintf("move failed: %v", err)
		return true
	}
	rb.stats.Moves++
	rb.stats.LastAction = fmt.Sprintf("moved partition %d: %s -> %s",
		hottest, dpr.sessions[hot].addr, dpr.sessions[cold].addr)
	rb.cooldown = rb.opts.cooldown()
	rb.streak = 0
	return true
}

// trySplit refines the hottest worker's hottest community by widening its
// hash fan-out along the proven atom-level key. The candidate must pass the
// duplication cost model on the last observed window, or it is refused and
// counted. Returns true iff a new
// layout was installed (a refusal or a no-op returns false, so the
// caller may still fall back to a move).
func (rb *rebalancer) trySplit(dpr *DPR, assign []int, hot int) bool {
	ap, ok := dpr.part.(*AdaptivePartitioner)
	if !ok {
		return false
	}
	hottest, hw := -1, -1.0
	for _, p := range dpr.sessions[hot].parts {
		if w := rb.loadEwma[p]; w > hw {
			hottest, hw = p, w
		}
	}
	if hottest < 0 {
		return false
	}
	c := ap.CommunityOf(hottest)
	if c < 0 {
		return false
	}

	maxFanout := rb.opts.MaxFanout
	if maxFanout <= 0 {
		maxFanout = len(dpr.sessions)
	}

	if !ap.Splittable(c) || ap.Fanout(c) >= maxFanout {
		// Nothing left to try at this layout; back off before looking
		// again.
		rb.cooldown = rb.opts.cooldown()
		rb.streak = 0
		return false
	}
	m := min(2*ap.Fanout(c), maxFanout)
	cand := ap.withFanout(c, m)
	action := fmt.Sprintf("split community %d to fan-out %d", c, m)

	accepted, weights := rb.price(dpr, ap, cand)
	if !accepted {
		rb.stats.RefusedSplits++
		rb.stats.LastAction = "refused: " + action + " (duplication cost exceeds projected gain)"
		rb.cooldown = rb.opts.cooldown()
		rb.streak = 0
		return false
	}

	// Install the candidate layout on the LIVE partitioner and re-layout
	// the sessions around the new partition set.
	ap.width = cand.width
	ap.reindex()
	rb.stats.Splits++
	if err := dpr.applyLayout(assignLPT(weights, len(dpr.sessions))); err != nil {
		rb.stats.LastAction = fmt.Sprintf("%s: layout failed: %v", action, err)
		return true
	}
	rb.stats.LastAction = action
	rb.loadEwma = weights
	rb.cooldown = rb.opts.cooldown()
	rb.streak = 0
	return true
}

// price runs the duplication cost model: both partitioners route the last
// observed window, and the candidate is accepted only when its projected
// critical-path gain (drop in the maximum partition weight) exceeds its
// replication cost (growth in routed-item duplication — the paper's
// duplication share). Returns the candidate's per-partition item weights
// for the follow-up layout.
func (rb *rebalancer) price(dpr *DPR, cur, cand *AdaptivePartitioner) (bool, []float64) {
	window := dpr.lastWindow
	if len(window) == 0 {
		return false, nil
	}
	parts1, _ := cur.Partition(window)
	parts2, _ := cand.Partition(window)
	var routed1, routed2, max1, max2 int
	for _, p := range parts1 {
		routed1 += len(p)
		if len(p) > max1 {
			max1 = len(p)
		}
	}
	weights := make([]float64, len(parts2))
	for i, p := range parts2 {
		routed2 += len(p)
		weights[i] = float64(len(p)) + 1
		if len(p) > max2 {
			max2 = len(p)
		}
	}
	if max2 >= max1 || routed1 == 0 || max2 == 0 {
		return false, nil
	}
	gain := float64(max1)/float64(max2) - 1
	cost := float64(routed2-routed1) / float64(routed1)
	return gain > cost, weights
}
