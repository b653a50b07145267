package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDecl declares one benchmark metric. The end-to-end list below is the
// single source of truth for names, units, directions and regression bounds;
// BENCHMARK.json repeats it and smoke_test.go holds the two equal.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Moves names, for a per-layer metric, the end-to-end metric it should
	// move and the workload on which it should: "metric@workload".
	Moves string `json:"-"`
}

// endToEnd is what an operator of the system sees, on every workload.
var endToEnd = []metricDecl{
	{"items_per_s", "1/s", "higher", 0.10, ""},
	{"window_p50_ms", "ms", "lower", 0.10, ""},
	{"window_p95_ms", "ms", "lower", 0.20, ""},
	{"live_heap_mb", "MB", "lower", 0.10, ""},
	{"setup_s", "s", "lower", 0.25, ""},
}

// perLayer metrics come from the traced run: mean self-ms per window out of
// the benchmark's layer walk, counters the layers already keep, and the
// facade pass of the same process. A layer a workload does not use reports 0.
var perLayer = []metricDecl{
	{"stream.window_ms", "ms", "lower", 0, "items_per_s@sliding-w10k-s500"},
	{"stream.items_in", "count", "higher", 0, "items_per_s@sliding-w10k-s500"},
	{"stream.windows_out", "count", "higher", 0, "items_per_s@sliding-w10k-s500"},
	{"stream.delta_items_per_window", "count", "lower", 0, "items_per_s@sliding-w10k-s500"},

	{"dfp.intern_ms", "ms", "lower", 0, "items_per_s@sliding-w10k-s500"},
	{"dfp.items_per_s", "1/s", "higher", 0, "items_per_s@sliding-w10k-s500"},
	{"dfp.skipped", "count", "lower", 0, "items_per_s@sliding-w10k-s500"},

	{"intern.atoms_live", "count", "lower", 0, "live_heap_mb@sliding-w10k-s500"},
	{"intern.atoms_peak", "count", "lower", 0, "live_heap_mb@sliding-w10k-s500"},
	{"intern.new_atoms_per_window", "count", "lower", 0, "window_p95_ms@sliding-w10k-s500"},
	{"intern.rotations", "count", "lower", 0, "window_p95_ms@sliding-w10k-s500"},
	{"intern.rotate_ms", "ms", "lower", 0, "window_p95_ms@sliding-w10k-s500"},
	{"intern.approx_bytes", "B", "lower", 0, "live_heap_mb@sliding-w10k-s500"},

	{"ground.ground_ms", "ms", "lower", 0, "window_p50_ms@tumbling-w20k"},
	{"ground.update_ms", "ms", "lower", 0, "window_p50_ms@sliding-w10k-s500"},
	{"ground.rules_out", "count", "lower", 0, "window_p50_ms@residual-w5k"},
	{"ground.certain_atoms", "count", "higher", 0, "window_p50_ms@tumbling-w20k"},
	{"ground.incremental_share", "ratio", "higher", 0, "window_p50_ms@sliding-w10k-s500"},
	{"ground.reseeds", "count", "lower", 0, "window_p50_ms@sliding-w10k-s500"},

	{"solve.solve_ms", "ms", "lower", 0, "window_p50_ms@residual-w5k"},
	{"solve.models", "count", "higher", 0, "window_p50_ms@residual-w5k"},
	{"solve.rule_visits", "count", "lower", 0, "window_p50_ms@residual-w5k"},
	{"solve.decisions", "count", "lower", 0, "window_p50_ms@residual-w5k"},
	{"solve.conflicts", "count", "lower", 0, "window_p50_ms@residual-w5k"},
	{"solve.stability_checks", "count", "lower", 0, "window_p50_ms@residual-w5k"},
	{"solve.reused_clauses", "count", "higher", 0, "window_p50_ms@residual-w5k"},
	{"solve.fastpath_share", "ratio", "higher", 0, "window_p50_ms@residual-w5k"},

	{"reasoner.partition_ms", "ms", "lower", 0, "window_p50_ms@tumbling-w20k"},
	{"reasoner.combine_ms", "ms", "lower", 0, "window_p50_ms@tumbling-w20k"},
	{"reasoner.other_ms", "ms", "lower", 0, "window_p50_ms@residual-w5k"},
	{"reasoner.routed_items", "count", "lower", 0, "window_p50_ms@tumbling-w20k"},
	{"reasoner.duplication_share", "ratio", "lower", 0, "window_p50_ms@tumbling-w20k"},
	{"reasoner.partition_skew", "ratio", "lower", 0, "window_p50_ms@tumbling-w20k"},
	{"reasoner.critical_path_ms", "ms", "lower", 0, "window_p50_ms@tumbling-w20k"},
	{"reasoner.answers_per_window", "count", "higher", 0, "window_p50_ms@tumbling-w20k"},
	{"reasoner.r_baseline_window_ms", "ms", "lower", 0, "window_p50_ms@tumbling-w20k"},
	{"reasoner.speedup_vs_r", "ratio", "higher", 0, "window_p50_ms@tumbling-w20k"},

	{"core.analyze_ms", "ms", "lower", 0, "setup_s@tenants-1k"},
	{"core.partitions", "count", "higher", 0, "setup_s@tenants-1k"},

	{"serve.add_tenant_ms", "ms", "lower", 0, "setup_s@tenants-1k"},
	{"serve.push_ns", "ns", "lower", 0, "items_per_s@tenants-1k"},
	{"serve.service_p50_ms", "ms", "lower", 0, "window_p50_ms@tenants-1k"},
	{"serve.queue_wait_p50_ms", "ms", "lower", 0, "items_per_s@tenants-1k"},
	{"serve.queue_wait_p99_ms", "ms", "lower", 0, "items_per_s@tenants-1k"},
	{"serve.lag_p50_ms.lo", "ms", "lower", 0, "items_per_s@tenants-1k"},
	{"serve.lag_p99_ms.lo", "ms", "lower", 0, "items_per_s@tenants-1k"},
	{"serve.lag_p50_ms.hi", "ms", "lower", 0, "items_per_s@tenants-1k"},
	{"serve.lag_p99_ms.hi", "ms", "lower", 0, "items_per_s@tenants-1k"},
	{"serve.over_limit.lo", "count", "lower", 0, "items_per_s@tenants-1k"},
	{"serve.over_limit.hi", "count", "lower", 0, "items_per_s@tenants-1k"},
	{"serve.shed", "count", "lower", 0, "items_per_s@tenants-1k"},
	{"serve.blocked", "count", "lower", 0, "items_per_s@tenants-1k"},
	{"serve.errors", "count", "lower", 0, "items_per_s@tenants-1k"},
	{"serve.backlog_end.lo", "count", "lower", 0, "items_per_s@tenants-1k"},
	{"serve.backlog_end.hi", "count", "lower", 0, "items_per_s@tenants-1k"},
	{"serve.generator_late_p99_ms", "ms", "lower", 0, "items_per_s@tenants-1k"},
	{"serve.windows", "count", "higher", 0, "items_per_s@tenants-1k"},

	{"transport.wire_bytes_per_window", "B", "lower", 0, "items_per_s@dpr-loopback-w10k-s1k"},
	{"transport.bytes_sent_per_window", "B", "lower", 0, "items_per_s@dpr-loopback-w10k-s1k"},
	{"transport.bytes_recv_per_window", "B", "lower", 0, "items_per_s@dpr-loopback-w10k-s1k"},
	{"transport.rounds_per_window", "count", "lower", 0, "items_per_s@dpr-loopback-w10k-s1k"},
	{"transport.req_dict_hit", "ratio", "higher", 0, "items_per_s@dpr-loopback-w10k-s1k"},
	{"transport.resp_dict_hit", "ratio", "higher", 0, "items_per_s@dpr-loopback-w10k-s1k"},
	{"transport.delta_part_share", "ratio", "higher", 0, "items_per_s@dpr-loopback-w10k-s1k"},
	{"transport.mean_in_flight", "count", "higher", 0, "items_per_s@dpr-loopback-w10k-s1k"},
	{"transport.local_fallbacks", "count", "lower", 0, "items_per_s@dpr-loopback-w10k-s1k"},
	{"transport.redials", "count", "lower", 0, "items_per_s@dpr-loopback-w10k-s1k"},
	{"transport.submit_ms", "ms", "lower", 0, "window_p50_ms@dpr-loopback-w10k-s1k"},
	{"transport.collect_wait_ms", "ms", "lower", 0, "window_p50_ms@dpr-loopback-w10k-s1k"},
	{"transport.round_ms", "ms", "lower", 0, "window_p50_ms@dpr-loopback-w10k-s1k"},

	{"runtime.allocs_per_window", "count", "lower", 0, "window_p95_ms@tumbling-w20k"},
	{"runtime.alloc_bytes_per_window", "B", "lower", 0, "window_p95_ms@tumbling-w20k"},
	{"runtime.gc_cycles", "count", "lower", 0, "window_p95_ms@tumbling-w20k"},
	{"runtime.gc_pause_ms_total", "ms", "lower", 0, "window_p95_ms@tumbling-w20k"},
	{"runtime.peak_rss_mb", "MB", "lower", 0, "live_heap_mb@tumbling-w20k"},

	{"trace.overhead_ratio", "ratio", "higher", 0, ""},
	{"trace.walk_coverage", "ratio", "higher", 0, ""},
}

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the benchmark prints as its last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// measured maps metric name to value while a run collects them.
type measured map[string]float64

// report keeps exactly the declared metrics, attaching units. A declared
// metric the run did not produce is a bug in the benchmark, not a zero.
func report(decls []metricDecl, m measured) (map[string]value, error) {
	out := make(map[string]value, len(decls))
	for _, d := range decls {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics. xs keeps its order, which is time order for the
// callers that go on to cut it into batches.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// A timed phase is cut into at most maxBatches consecutive parts; a rate or a
// high percentile is computed per part and the median part is reported. A
// stretch of the run that another tenant of the machine slowed down then
// moves a few parts, not the result.
const maxBatches = 10

// batchMedian cuts xs, which is in time order, into consecutive parts of at
// least minPart values and returns the median of f over them.
func batchMedian(xs []float64, minPart int, f func([]float64) float64) float64 {
	n := min(maxBatches, max(1, len(xs)/minPart))
	if len(xs) == 0 {
		return 0
	}
	per := make([]float64, n)
	for i := range per {
		per[i] = f(xs[i*len(xs)/n : (i+1)*len(xs)/n])
	}
	return median(per)
}

// batchRate is the median rate over the batches of a phase whose steps —
// windows, or rounds of pushes — each took secs[i] seconds and consumed
// itemsPerStep items.
func batchRate(secs []float64, itemsPerStep int) float64 {
	return batchMedian(secs, 10, func(part []float64) float64 { return ratio(float64(len(part)*itemsPerStep), sum(part)) })
}

// batchP95 is the median over the batches of each batch's 95th percentile.
// A batch has at least fifty values, so that two or three lie beyond it.
func batchP95(xs []float64) float64 {
	return batchMedian(xs, 50, func(part []float64) float64 { return quantile(part, 0.95) })
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// liveHeapMB collects garbage and returns what the heap still holds.
func liveHeapMB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / (1 << 20)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// stopwatch accumulates the timed region across pauses (stream generation,
// digests and RSS reads between windows are outside it).
type stopwatch struct {
	total   time.Duration
	started time.Time
	running bool
}

func (s *stopwatch) start() {
	if !s.running {
		s.started, s.running = time.Now(), true
	}
}

func (s *stopwatch) stop() {
	if s.running {
		s.total += time.Since(s.started)
		s.running = false
	}
}

func (s *stopwatch) elapsed() time.Duration {
	if s.running {
		return s.total + time.Since(s.started)
	}
	return s.total
}
