package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"streamrule"
	"streamrule/internal/workload"
)

// tenantRun is the generator's and the Handle callback's view of one tenant.
type tenantRun struct {
	id      string
	pool    []streamrule.Triple // replayed in a cycle
	pos     int                 // items pushed so far
	offset  int                 // extra items pushed during set-up, so that tenants' windows do not all close in the same round
	sampled bool

	mu      sync.Mutex
	stamps  []stamp // one per emitted window, in order
	handled int
	answers [][]*streamrule.AnswerSet // sampled tenants only
}

// stamp is when a window's last triple was due and when it was pushed.
type stamp struct {
	phase       int
	due, pushed time.Time
}

// windowTiming is one delivered window as the operator sees it.
type windowTiming struct {
	phase                 int
	lagMS, waitMS, servMS float64
	lateMS                float64 // how late the generator pushed the window's last triple
}

// fleet is one Server with its tenants and everything measured on it.
type fleet struct {
	w       *spec
	rec     *recorder
	srv     *streamrule.Server
	tenants []*tenantRun
	emitted int
	done    atomic.Int64 // windows delivered to Handle

	mu      sync.Mutex
	timings []windowTiming

	addTenantMS []float64
	setupS      float64
	soloMS      float64 // mean window time of the sampled tenants' solo runs
}

const (
	phaseSetup = iota
	phaseClosed
	phaseLo
	phaseHi
)

// tenantPools generates every tenant's triples from the seed: the paper's
// traffic over tenant-prefixed constants, scaled to the tenant's window.
func tenantPools(w *spec, seed int64) ([]*tenantRun, error) {
	runs := make([]*tenantRun, w.tenants)
	stride := max(1, w.tenants/w.sampled)
	for i := range runs {
		id := fmt.Sprintf("t%d", i)
		g, err := workload.NewGenerator(seed*1_000_003+int64(i), workload.TenantTraffic(id))
		if err != nil {
			return nil, err
		}
		var pool []streamrule.Triple
		for len(pool) < w.pool {
			pool = append(pool, g.Window(w.size)...)
		}
		runs[i] = &tenantRun{id: id, pool: pool[:w.pool], offset: i % w.step, sampled: i%stride == 0 && i/stride < w.sampled}
	}
	return runs, nil
}

// newFleet is the workload's set-up: a Server, every AddTenant, and each
// tenant's first full window delivered.
func newFleet(w *spec, seed int64, overflow streamrule.Overflow, rec *recorder) (*fleet, error) {
	runs, err := tenantPools(w, seed) // generated outside set-up
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	f := &fleet{w: w, rec: rec, tenants: runs}
	f.srv = streamrule.NewServer(streamrule.ServerConfig{Workers: w.fleet})
	for _, t := range runs {
		sp := rec.begin(-1, 0, "serve", "add_tenant")
		a0 := time.Now()
		err := f.srv.AddTenant(t.id, streamrule.TenantConfig{
			Program: w.program, Inpre: inpre,
			WindowSize: w.size, WindowStep: w.step,
			MemoryBudget: w.budget, Overflow: overflow,
			Handle: f.handler(t),
		})
		f.addTenantMS = append(f.addTenantMS, ms(time.Since(a0)))
		rec.end(sp)
		if err != nil {
			f.srv.Close()
			return nil, err
		}
	}
	for _, t := range runs {
		for t.pos < w.size+t.offset {
			if err := f.push(t, phaseSetup, time.Time{}); err != nil {
				f.srv.Close()
				return nil, err
			}
		}
	}
	if err := f.quiesce(); err != nil {
		f.srv.Close()
		return nil, err
	}
	f.setupS = time.Since(t0).Seconds()
	return f, nil
}

// handler is the tenant's Handle callback: it runs on a fleet goroutine,
// once per delivered window, never concurrently for one tenant.
func (f *fleet) handler(t *tenantRun) func([]streamrule.Triple, *streamrule.Output) {
	return func(_ []streamrule.Triple, out *streamrule.Output) {
		now := time.Now()
		t.mu.Lock()
		st := t.stamps[t.handled]
		seq := t.handled
		t.handled++
		if t.sampled {
			t.answers = append(t.answers, out.Answers)
		}
		t.mu.Unlock()
		if st.phase != phaseSetup {
			serv := out.Latency.Total
			tm := windowTiming{phase: st.phase, servMS: ms(serv), waitMS: max(0, ms(now.Sub(st.pushed)-serv))}
			if !st.due.IsZero() {
				tm.lagMS = ms(now.Sub(st.due))
				tm.lateMS = ms(st.pushed.Sub(st.due))
			}
			f.mu.Lock()
			f.timings = append(f.timings, tm)
			f.mu.Unlock()
			if t.sampled {
				root := f.rec.add(-1, seq, "serve", "window", st.pushed, now)
				f.rec.add(root, seq, "serve", "service", now.Add(-serv), now)
			}
		}
		f.done.Add(1)
	}
}

// push feeds the tenant's next triple. When that triple closes a window it
// stamps the window with its due time (zero in a closed loop) and push time.
func (f *fleet) push(t *tenantRun, phase int, due time.Time) error {
	tr := t.pool[t.pos%len(t.pool)]
	t.pos++
	closes := t.pos >= f.w.size && (t.pos-f.w.size)%f.w.step == 0
	if closes {
		// Stamped before Push: the window may be handled before Push returns.
		t.mu.Lock()
		t.stamps = append(t.stamps, stamp{phase: phase, due: due, pushed: time.Now()})
		t.mu.Unlock()
		f.emitted++
	}
	return f.srv.Push(t.id, tr)
}

// quiesce waits until every emitted window was delivered. Windows that were
// shed or failed never reach Handle; the Server's counters are consulted for
// them now and then, and the wait gives up after a minute.
func (f *fleet) quiesce() error {
	deadline := time.Now().Add(time.Minute)
	for i := 1; int(f.done.Load()) < f.emitted; i++ {
		time.Sleep(200 * time.Microsecond)
		if i%256 != 0 {
			continue
		}
		st := f.srv.Stats()
		if int(f.done.Load())+int(st.TotalShed+st.TotalErrors) >= f.emitted {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tenants: %d of %d windows delivered after a minute", f.done.Load(), f.emitted)
		}
	}
	return nil
}

// closedLoop pushes the given number of rounds — one triple to every tenant
// — as fast as backpressure allows, or as many of them as seconds allow, then
// waits for the answers. It returns how long each round took; the wait is
// spread over the rounds it drains.
// The live heap is read after round heapRound, a fixed count, so that it does
// not grow with how many windows a faster fleet gets through, and with the
// queues drained, so that it does not hold however many windows happened to
// wait. The round this lengthens is one of thousands.
func (f *fleet) closedLoop(rounds int, seconds float64) (roundS []float64, heapMB float64, err error) {
	t0 := time.Now()
	last := t0
	for len(roundS) < rounds && time.Since(t0).Seconds() < seconds {
		for _, t := range f.tenants {
			if err := f.push(t, phaseClosed, time.Time{}); err != nil {
				return nil, 0, err
			}
		}
		if len(roundS)+1 == heapRound {
			if err := f.quiesce(); err != nil {
				return nil, 0, err
			}
			heapMB = liveHeapMB()
		}
		now := time.Now()
		roundS = append(roundS, now.Sub(last).Seconds())
		last = now
	}
	if err := f.quiesce(); err != nil {
		return nil, 0, err
	}
	if heapMB == 0 {
		heapMB = liveHeapMB() // the run was shorter than heapRound rounds
	}
	// Backpressure lets the generator run at most a queue ahead of the
	// fleet; the rounds still queued when pushing stopped are paid for here.
	tail := time.Since(last).Seconds() / float64(len(roundS))
	for i := range roundS {
		roundS[i] += tail
	}
	return roundS, heapMB, nil
}

// heapRound is about two seconds into the closed loop on the seed commit.
const heapRound = 400

// openPhase is what one fixed-rate phase measured besides window timings.
type openPhase struct {
	items      int
	backlogEnd int
	pushNS     float64
}

// openLoop pushes round-robin on a fixed schedule, item j due at t0+j/rate,
// regardless of how the server keeps up: openSeconds of it, or the given
// seconds if they are fewer.
func (f *fleet) openLoop(phase int, rate, seconds float64) (*openPhase, error) {
	total := int(rate * min(f.w.openSeconds, seconds))
	per := time.Duration(float64(time.Second) / rate)
	var inPush time.Duration
	t0 := time.Now()
	for j := 0; j < total; {
		due := min(total, int(time.Since(t0).Seconds()*rate)+1)
		b0 := time.Now()
		for ; j < due; j++ {
			if err := f.push(f.tenants[j%len(f.tenants)], phase, t0.Add(time.Duration(j)*per)); err != nil {
				return nil, err
			}
		}
		inPush += time.Since(b0)
		if wait := time.Until(t0.Add(time.Duration(j) * per)); wait > 0 {
			time.Sleep(wait)
		}
	}
	ph := &openPhase{items: total, pushNS: ratio(float64(inPush.Nanoseconds()), float64(total))}
	for _, row := range f.srv.Stats().PerTenant {
		ph.backlogEnd += row.QueueLen
	}
	return ph, f.quiesce()
}

// tenantSource is the triple sequence the tenant was fed, for its solo run.
func (t *tenantRun) source() []streamrule.Triple {
	src := make([]streamrule.Triple, t.pos)
	for i := range src {
		src[i] = t.pool[i%len(t.pool)]
	}
	return src
}

// checkTenants replays every sampled tenant alone through Pipeline and a
// private Engine and compares each window's answers with what the Server
// delivered for it.
func (f *fleet) checkTenants() (*oracleReport, error) {
	p, err := streamrule.LoadProgram(f.w.program, inpre)
	if err != nil {
		return nil, err
	}
	rep := &oracleReport{}
	for _, t := range f.tenants {
		if !t.sampled {
			continue
		}
		eng, err := streamrule.NewEngine(p, streamrule.WithMemoryBudget(f.w.budget))
		if err != nil {
			return nil, err
		}
		var want []string
		t0 := time.Now()
		pl := &streamrule.Pipeline{Source: t.source(), WindowSize: f.w.size, WindowStep: f.w.step, Reasoner: eng}
		err = pl.Run(context.Background(), func(win []streamrule.Triple, out *streamrule.Output) error {
			if len(win) == f.w.size { // the flushed tail is not a window the Server saw
				want = append(want, digest(out.Answers))
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("solo run of %s: %w", t.id, err)
		}
		rep.refMS = append(rep.refMS, ms(time.Since(t0))/float64(max(1, len(want))))
		if len(t.answers) != len(want) {
			rep.checked += len(want)
			rep.mismatches = append(rep.mismatches, fmt.Sprintf("%s: %d windows delivered, solo run has %d", t.id, len(t.answers), len(want)))
			continue
		}
		for i, a := range t.answers {
			rep.checked++
			if digest(a) != want[i] {
				rep.mismatches = append(rep.mismatches, fmt.Sprintf("%s window %d: answers differ from the solo run", t.id, i))
			}
		}
	}
	return rep, nil
}

// tenantDigests are the digests of each sampled tenant's first windows.
func (f *fleet) tenantDigests() []string {
	var out []string
	for _, t := range f.tenants {
		if !t.sampled {
			continue
		}
		for i := 0; i < min(f.w.exact, len(t.answers)); i++ {
			out = append(out, digest(t.answers[i]))
		}
	}
	return out
}

// close takes the final statistics, releases the Server and collects its
// memory, so that the next fleet of a run does not grow on top of this one's
// garbage. What the oracle needs stays in the tenantRuns.
func (f *fleet) close() streamrule.ServerStats {
	st := f.srv.Stats()
	f.srv.Close()
	f.srv = nil
	runtime.GC()
	return st
}
