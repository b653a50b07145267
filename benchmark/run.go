package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"streamrule"
	"streamrule/internal/transport"
)

// outcome is one run of one workload: the last-line result plus what the
// human-readable report prints above it.
type outcome struct {
	res     result
	metrics measured
	digest  string // answers_digest: the first spec.exact windows' answers
	notes   []string
	cuts    []string // timed phases that --seconds ended before their count
	spans   []span
}

// cut notes a timed phase that measured fewer windows than it is fixed at,
// so that its numbers are not read as those of the whole phase.
func (o *outcome) cut(phase string, got, want int) {
	if got < want {
		o.cuts = append(o.cuts, fmt.Sprintf("%s: --seconds ended the phase after %d of %d", phase, got, want))
	}
}

func (o *outcome) fail(n int, format string, args ...any) {
	o.res.Failed += n
	o.res.Correct = false
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// runWorkload measures one workload; no timed phase of it lasts longer than
// the given time. Untraced it reports the end-to-end metrics through the
// facade; traced it reports the per-layer metrics out of a shorter facade
// pass and the layer walk.
func runWorkload(w *spec, seed int64, seconds float64, traced bool) (*outcome, error) {
	o := &outcome{res: result{Correct: true}, metrics: measured{}}
	for _, d := range perLayer {
		o.metrics[d.Name] = 0 // a layer the workload does not use reports 0
	}
	var err error
	switch {
	case w.engine == engineServer:
		err = runTenants(o, w, seed, seconds, traced)
	case traced:
		err = runPipelineTraced(o, w, seed, seconds)
	default:
		err = runPipeline(o, w, seed, seconds)
	}
	if err != nil {
		return nil, err
	}
	decls := endToEnd
	if traced {
		decls = perLayer
		if err := checkSpans(o.spans); err != nil {
			return nil, err
		}
	}
	if o.res.Metrics, err = report(decls, o.metrics); err != nil {
		return nil, err
	}
	return o, nil
}

// runPipeline is the untraced run of a single-pipeline workload.
func runPipeline(o *outcome, w *spec, seed int64, seconds float64) error {
	facade := func() (driver, error) { return newFacadeDriver(w, nil) }
	var setups []float64
	for rep := 0; rep < setupReps-1; rep++ {
		p, _, err := measure(w, seed, rep, 0, 0, facade)
		if err != nil {
			return err
		}
		setups = append(setups, p.setupS)
	}
	p, _, err := measure(w, seed, setupReps-1, w.windows, seconds, facade)
	if err != nil {
		return err
	}
	setups = append(setups, p.setupS)
	o.cut("windows", p.all.windows, w.windows)
	rep, err := checkSamples(w, p.samples)
	if err != nil {
		return err
	}
	o.judge(p, rep)

	m := o.metrics
	m["setup_s"] = median(setups)
	m["items_per_s"] = batchRate(p.cycleS, w.step)
	m["window_p50_ms"] = median(p.windowMS)
	m["window_p95_ms"] = batchP95(p.windowMS)
	m["live_heap_mb"] = p.heapMB
	return nil
}

// judge fills attempted/failed/correct and the digest from a facade pass and
// its oracle report.
func (o *outcome) judge(p *pass, rep *oracleReport) {
	o.res.Attempted += p.all.windows + rep.checked
	o.digest = combineDigests(p.exactDigests())
	for _, m := range rep.mismatches {
		o.fail(1, "oracle: %s", m)
	}
	if lf := p.wireAfter.LocalFallbacks - p.wireBefore.LocalFallbacks; lf > 0 {
		o.fail(int(lf), "%d partition windows fell back to the local reasoner", lf)
	}
}

// runPipelineTraced is the traced run: a third of the workload's windows
// through the facade, for the counters the engine keeps and the window time
// to attribute, and the same windows through the layer walk.
func runPipelineTraced(o *outcome, w *spec, seed int64, seconds float64) error {
	rec := newRecorder()
	f, fdrv, err := measure(w, seed, setupReps-1, w.windows/3, seconds, func() (driver, error) { return newFacadeDriver(w, rec) })
	if err != nil {
		return err
	}
	firstWalk := len(rec.spans)
	var wd *walkDriver
	wp, _, err := measure(w, seed, setupReps-1, w.windows/3, seconds, func() (driver, error) {
		wk, err := newWalker(rec, w)
		wd = &walkDriver{w: w, wk: wk}
		return wd, err
	})
	if err != nil {
		return err
	}
	o.spans = rec.spans
	o.cut("facade windows", f.all.windows, w.windows/3)
	o.cut("walk windows", wp.all.windows, w.windows/3)
	rep, err := checkSamples(w, f.samples)
	if err != nil {
		return err
	}
	o.judge(f, rep)

	// The walk must have computed what the facade computed.
	fd, wdg := f.exactDigests(), wp.exactDigests()
	common := min(len(fd), len(wdg))
	o.res.Attempted += common
	for i := 0; i < common; i++ {
		if fd[i] != wdg[i] {
			o.fail(1, "walk: window %d: layer walk answers differ from the facade's", i+1)
		}
	}
	if common == 0 {
		o.fail(1, "walk: no window in common with the facade pass")
	}

	m := o.metrics
	fw, ww := float64(f.all.windows), float64(wp.all.windows)
	ew := float64(max(1, f.exact.windows))

	// Self time per layer over the walk's timed windows, summed over
	// partitions, as a mean per window.
	timed := func(s span) bool { return s.ID >= firstWalk && s.Seq >= w.warm && s.Seq < w.warm+wp.all.windows }
	self := walkMetrics(m, rec.spans, timed, ww, mean(f.windowMS))
	m["trace.overhead_ratio"] = ratio(ratio(ww, wp.elapsed.Seconds()), ratio(fw, f.elapsed.Seconds()))

	m["stream.items_in"] = float64(f.exact.windows * w.step)
	m["stream.windows_out"] = float64(f.exact.windows)
	m["stream.delta_items_per_window"] = float64(f.exact.deltaItems) / ew
	m["dfp.items_per_s"] = ratio(float64(wd.internedTimed(w.warm)), self["dfp.intern"]/1e3)
	m["dfp.skipped"] = float64(f.exact.skipped)

	tb, ta := f.tabBefore.Table, f.tabAfter.Table
	m["intern.atoms_live"] = float64(ta.Atoms)
	m["intern.atoms_peak"] = float64(ta.PeakAtoms)
	m["intern.new_atoms_per_window"] = ratio(float64(ta.Atoms-tb.Atoms)+float64(ta.EvictedAtoms-tb.EvictedAtoms), fw)
	m["intern.rotations"] = float64(ta.Rotations - tb.Rotations)
	m["intern.approx_bytes"] = float64(ta.Bytes)

	m["ground.rules_out"] = float64(f.exact.groundRules)
	m["ground.certain_atoms"] = float64(f.exact.groundCertain)
	m["ground.incremental_share"] = ratio(float64(f.all.incremental), fw)
	for _, pw := range wd.wk.parts {
		m["ground.reseeds"] += float64(pw.reseeds)
	}

	m["solve.models"] = float64(f.exact.answers)
	m["solve.rule_visits"] = float64(f.exact.solve.RuleVisits)
	m["solve.decisions"] = float64(f.exact.solve.Choices)
	m["solve.conflicts"] = float64(f.exact.solve.Conflicts)
	m["solve.stability_checks"] = float64(f.exact.solve.StabilityChecks)
	m["solve.reused_clauses"] = float64(f.exact.solve.ReusedClauses)
	m["solve.fastpath_share"] = ratio(float64(f.all.fastPath), fw)

	m["reasoner.routed_items"] = float64(f.exact.routed)
	m["reasoner.duplication_share"] = ratio(float64(f.exact.routed-f.exact.items+f.exact.skipped), float64(f.exact.routed))
	m["reasoner.partition_skew"] = ratio(f.all.skew, float64(f.all.partitionedWindows))
	m["reasoner.critical_path_ms"] = ratio(ms(f.all.criticalPath), fw)
	m["reasoner.answers_per_window"] = ratio(float64(f.all.answers), fw)
	m["reasoner.r_baseline_window_ms"] = mean(rep.refMS)
	m["reasoner.speedup_vs_r"] = ratio(mean(rep.refMS), median(f.windowMS))

	m["core.analyze_ms"] = wd.wk.analyzeMS
	m["core.partitions"] = float64(wd.wk.partitions)

	if w.engine == engineDPR {
		if err := wireMetrics(m, w, f, fdrv.(*facadeDriver).tr); err != nil {
			return err
		}
	}
	runtimeMetrics(m, &f.memBefore, &f.memAfter, fw)
	return nil
}

// walkMetrics turns the walk's spans into the per-layer times: mean self
// milliseconds per window, summed over partitions, for the windows keep
// selects. facadeMS is the mean time the facade took for a window. It returns
// the total self time per "layer.name".
func walkMetrics(m measured, spans []span, keep func(span) bool, windows, facadeMS float64) map[string]float64 {
	self := layerSelfMS(spans, keep)
	per := func(key string) float64 { return ratio(self[key], windows) }
	m["stream.window_ms"] = per("stream.window")
	m["dfp.intern_ms"] = per("dfp.intern")
	m["ground.ground_ms"] = per("ground.ground")
	m["ground.update_ms"] = per("ground.update")
	m["solve.solve_ms"] = per("solve.solve")
	m["reasoner.partition_ms"] = per("reasoner.partition")
	m["reasoner.combine_ms"] = per("reasoner.combine")
	m["intern.rotate_ms"] = per("intern.rotate")
	covered := ratio(coveredMS(spans, keep), windows)
	m["trace.walk_coverage"] = ratio(covered, facadeMS)
	// Everything in a window that is not a call into a named layer: the
	// projection and bookkeeping the walk has to do itself between the
	// calls, plus what the facade spends beyond the walk's covered time.
	m["reasoner.other_ms"] = per("reasoner.project") + per("reasoner.diff") + max(0, facadeMS-covered)
	return self
}

func runtimeMetrics(m measured, before, after *runtime.MemStats, windows float64) {
	m["runtime.peak_rss_mb"] = peakRSSMB()
	m["runtime.allocs_per_window"] = ratio(float64(after.Mallocs-before.Mallocs), windows)
	m["runtime.alloc_bytes_per_window"] = ratio(float64(after.TotalAlloc-before.TotalAlloc), windows)
	m["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["runtime.gc_pause_ms_total"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
}

// wireMetrics reports what the distributed engine counted on the wire during
// the timed phase, and the cost of a bare round.
func wireMetrics(m measured, w *spec, f *pass, tr *timedReasoner) error {
	a, b := f.wireAfter, f.wireBefore
	windows := float64(a.Windows - b.Windows)
	sent, recv := float64(a.BytesSent-b.BytesSent), float64(a.BytesReceived-b.BytesReceived)
	m["transport.wire_bytes_per_window"] = ratio(sent+recv, windows)
	m["transport.bytes_sent_per_window"] = ratio(sent, windows)
	m["transport.bytes_recv_per_window"] = ratio(recv, windows)
	m["transport.rounds_per_window"] = ratio(float64(a.Rounds-b.Rounds), windows)
	m["transport.req_dict_hit"] = 1 - ratio(float64(a.ReqDictShipped-b.ReqDictShipped), float64(a.ReqDictRefs-b.ReqDictRefs))
	m["transport.resp_dict_hit"] = 1 - ratio(float64(a.DictShipped-b.DictShipped), float64(a.DictRefs-b.DictRefs))
	delta, full := float64(a.DeltaPartWindows-b.DeltaPartWindows), float64(a.FullPartWindows-b.FullPartWindows)
	m["transport.delta_part_share"] = ratio(delta, delta+full)
	m["transport.mean_in_flight"] = ratio(float64(a.InFlightSum-b.InFlightSum), float64(a.Rounds-b.Rounds))
	m["transport.local_fallbacks"] = float64(a.LocalFallbacks - b.LocalFallbacks)
	m["transport.redials"] = float64(a.Redials - b.Redials)
	m["transport.submit_ms"] = mean(tr.submitMS[min(w.warm, len(tr.submitMS)):])
	m["transport.collect_wait_ms"] = mean(tr.collectMS[min(w.warm, len(tr.collectMS)):])
	round, err := echoRoundMS(w.step)
	m["transport.round_ms"] = round
	return err
}

// echoSession answers every request with an empty response: a round against
// it costs framing, gob, checksum and loopback TCP, and no reasoning.
type echoSession struct{}

func (echoSession) Window(req *transport.WindowReq) *transport.WindowResp {
	return &transport.WindowResp{Seq: req.Seq}
}
func (echoSession) Close() {}

type echoHandler struct{}

func (echoHandler) NewSession(*transport.Hello) (transport.Session, error) {
	return echoSession{}, nil
}

// echoRoundMS is the median time of transport.Client.Round against an echo
// worker, with a request the size of one window step's delta.
func echoRoundMS(step int) (float64, error) {
	srv, err := transport.NewServer("127.0.0.1:0", echoHandler{}, transport.ServerOptions{})
	if err != nil {
		return 0, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	defer func() { srv.Close(); <-served }()
	c, err := transport.Dial(srv.Addr(), &transport.Hello{Version: transport.ProtocolVersion}, transport.ClientOptions{})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	payload := make([]uint64, 3*step)
	for i := range payload {
		payload[i] = uint64(i)
	}
	var rounds []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := c.Round(&transport.WindowReq{Parts: []transport.PartReq{{Added: payload, Retracted: payload, WindowLen: step}}}, 5*time.Second); err != nil {
			return 0, err
		}
		rounds = append(rounds, ms(time.Since(t0)))
	}
	return median(rounds), nil
}

// runTenants is tenants-1k. Untraced, the whole run is the closed loop on a
// blocking Server: the sustained rate and the time each window took to reason.
// Traced, a third of those rounds are followed by the two fixed-rate open
// loops on a shedding Server.
func runTenants(o *outcome, w *spec, seed int64, seconds float64, traced bool) error {
	var setups []float64
	for rep := 0; !traced && rep < setupReps-1; rep++ {
		f, err := newFleet(w, seed, streamrule.BlockIngress, nil)
		if err != nil {
			return err
		}
		setups = append(setups, f.setupS)
		f.close()
	}
	rounds := w.rounds
	if traced {
		rounds /= 3
	}
	closed, err := newFleet(w, seed, streamrule.BlockIngress, nil)
	if err != nil {
		return err
	}
	setups = append(setups, closed.setupS)
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	roundS, heap, err := closed.closedLoop(rounds, seconds)
	runtime.ReadMemStats(&memAfter)
	closedStats := closed.close()
	if err != nil {
		return err
	}
	o.cut("closed-loop rounds", len(roundS), rounds)
	if err := o.judgeFleet(closed, closedStats); err != nil {
		return err
	}
	o.digest = combineDigests(closed.tenantDigests())
	var serv []float64
	for _, t := range closed.timings {
		serv = append(serv, t.servMS)
	}

	m := o.metrics
	m["setup_s"] = median(setups)
	m["items_per_s"] = batchRate(roundS, w.tenants)
	m["window_p50_ms"] = median(serv)
	m["window_p95_ms"] = batchP95(serv)
	m["live_heap_mb"] = heap
	if !traced {
		return nil
	}

	rec := newRecorder()
	open, err := newFleet(w, seed, streamrule.ShedOldest, rec)
	if err != nil {
		return err
	}
	lo, err := open.openLoop(phaseLo, w.rateLo, seconds)
	var hi *openPhase
	if err == nil {
		hi, err = open.openLoop(phaseHi, w.rateHi, seconds)
	}
	openStats := open.close()
	if err != nil {
		return err
	}
	if err := o.judgeFleet(open, openStats); err != nil {
		return err
	}

	lag := map[int][]float64{}
	over := map[int]int{}
	var wait, late []float64
	serv = serv[:0]
	for _, t := range open.timings {
		lag[t.phase] = append(lag[t.phase], t.lagMS)
		if t.lagMS > w.lagLimit {
			over[t.phase]++
		}
		if t.phase == phaseHi {
			wait, serv, late = append(wait, t.waitMS), append(serv, t.servMS), append(late, t.lateMS)
		}
	}
	m["serve.add_tenant_ms"] = mean(open.addTenantMS)
	m["serve.push_ns"] = lo.pushNS
	m["serve.service_p50_ms"] = quantile(serv, 0.50)
	m["serve.queue_wait_p50_ms"] = quantile(wait, 0.50)
	m["serve.queue_wait_p99_ms"] = quantile(wait, 0.99)
	m["serve.lag_p50_ms.lo"] = quantile(lag[phaseLo], 0.50)
	m["serve.lag_p99_ms.lo"] = quantile(lag[phaseLo], 0.99)
	m["serve.lag_p50_ms.hi"] = quantile(lag[phaseHi], 0.50)
	m["serve.lag_p99_ms.hi"] = quantile(lag[phaseHi], 0.99)
	m["serve.over_limit.lo"] = float64(over[phaseLo])
	m["serve.over_limit.hi"] = float64(over[phaseHi])
	m["serve.shed"] = float64(closedStats.TotalShed + openStats.TotalShed)
	m["serve.errors"] = float64(closedStats.TotalErrors + openStats.TotalErrors)
	for _, row := range closedStats.PerTenant {
		m["serve.blocked"] += float64(row.Blocked)
	}
	m["serve.backlog_end.lo"] = float64(lo.backlogEnd)
	m["serve.backlog_end.hi"] = float64(hi.backlogEnd)
	m["serve.generator_late_p99_ms"] = quantile(late, 0.99)
	m["serve.windows"] = float64(closedStats.TotalWindows + openStats.TotalWindows)
	m["intern.atoms_live"] = float64(openStats.LiveAtoms)
	runtimeMetrics(m, &memBefore, &memAfter, float64(closed.emitted))
	return walkTenants(o, w, open, rec, mean(serv))
}

// judgeFleet counts a closed Server's windows: none may be shed or fail, and
// every sampled tenant's answers must equal its solo run's.
func (o *outcome) judgeFleet(f *fleet, st streamrule.ServerStats) error {
	o.res.Attempted += f.emitted
	if n := st.TotalShed + st.TotalErrors; n > 0 {
		o.fail(int(n), "%d windows shed or errored", n)
	}
	rep, err := f.checkTenants()
	if err != nil {
		return err
	}
	o.res.Attempted += rep.checked
	for _, msg := range rep.mismatches {
		o.fail(1, "oracle: %s", msg)
	}
	f.soloMS = mean(rep.refMS)
	return nil
}

// walkTenants runs the layer walk over each sampled tenant's stream, alone,
// and holds its answers to what the Server delivered for that tenant.
func walkTenants(o *outcome, w *spec, f *fleet, rec *recorder, serviceMS float64) error {
	m := o.metrics
	var all sums
	var interned int
	var walkMS []float64
	first := len(rec.spans)
	for _, t := range f.tenants {
		if !t.sampled {
			continue
		}
		wk, err := newWalker(rec, w)
		if err != nil {
			return err
		}
		m["core.analyze_ms"], m["core.partitions"] = wk.analyzeMS, float64(wk.partitions)
		d := &walkDriver{w: w, wk: wk}
		i := 0
		err = d.run(context.Background(), t.source(), func(win []streamrule.Triple, out *streamrule.Output) error {
			if len(win) != w.size {
				return nil // the flushed tail is not a window the Server saw
			}
			walkMS = append(walkMS, ms(d.last))
			all.add(len(win), w.step, out)
			o.res.Attempted++
			if i >= len(t.answers) || digest(out.Answers) != digest(t.answers[i]) {
				o.fail(1, "walk: %s window %d: layer walk answers differ from the Server's", t.id, i)
			}
			i++
			return nil
		})
		if err != nil {
			return err
		}
		interned += wk.parts[0].interned
		m["ground.reseeds"] += float64(wk.parts[0].reseeds)
		m["intern.rotations"] += float64(wk.rotations)
	}
	o.spans = rec.spans
	n := float64(all.windows)
	self := walkMetrics(m, rec.spans, func(s span) bool { return s.ID >= first }, n, serviceMS)
	m["trace.overhead_ratio"] = ratio(serviceMS, mean(walkMS))
	m["stream.items_in"] = float64(w.exact * w.step * w.sampled)
	m["stream.windows_out"] = float64(w.exact * w.sampled)
	m["stream.delta_items_per_window"] = ratio(float64(all.deltaItems), n)
	m["dfp.items_per_s"] = ratio(float64(interned), self["dfp.intern"]/1e3)
	m["ground.incremental_share"] = ratio(float64(all.incremental), n)
	m["solve.fastpath_share"] = ratio(float64(all.fastPath), n)
	m["reasoner.answers_per_window"] = ratio(float64(all.answers), n)
	m["reasoner.critical_path_ms"] = serviceMS
	m["reasoner.r_baseline_window_ms"] = f.soloMS
	m["reasoner.speedup_vs_r"] = ratio(f.soloMS, serviceMS)
	return nil
}
