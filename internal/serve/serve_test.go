package serve

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"streamrule/internal/asp/intern"
	"streamrule/internal/asp/parser"
	"streamrule/internal/dfp"
	"streamrule/internal/progen"
	"streamrule/internal/rdf"
	"streamrule/internal/reasoner"
	"streamrule/internal/stream"
	"streamrule/internal/testleak"
	"streamrule/internal/transport"
)

// sigOf renders one window's answers in canonical comparable form.
func sigOf(out *reasoner.Output) string {
	sigs := make([]string, len(out.Answers))
	for i, a := range out.Answers {
		keys := a.Keys()
		sort.Strings(keys)
		sigs[i] = fmt.Sprint(keys)
	}
	sort.Strings(sigs)
	return fmt.Sprint(sigs)
}

// collector gathers a tenant's outputs in handled order.
type collector struct {
	mu   sync.Mutex
	sigs []string
}

func (c *collector) handle(_ []rdf.Triple, out *reasoner.Output) {
	c.mu.Lock()
	c.sigs = append(c.sigs, sigOf(out))
	c.mu.Unlock()
}

func (c *collector) snapshot() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.sigs...)
}

// soloRun is the oracle: the same program over the same stream, alone — the
// exact windowing and delta semantics the server applies, driven through a
// plain single-tenant reasoner.
func soloRun(t *testing.T, tc TenantConfig, triples []rdf.Triple) []string {
	t.Helper()
	prog, err := parser.Parse(tc.Program)
	if err != nil {
		t.Fatal(err)
	}
	cfg := reasoner.Config{
		Program: prog, Inpre: tc.Inpre, Arities: dfp.Arities(tc.Arities),
		OutputPreds:  tc.OutputPreds,
		MemoryBudget: tc.MemoryBudget, MemoryBudgetBytes: tc.MemoryBudgetBytes,
	}
	if cfg.MemoryBudget == 0 && cfg.MemoryBudgetBytes == 0 {
		cfg.GroundOpts.Intern = intern.NewTable()
	}
	r, err := reasoner.NewR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var w stream.Windower
	if tc.WindowStep > 0 && tc.WindowStep < tc.WindowSize {
		w = &stream.SlidingCountWindow{Size: tc.WindowSize, Step: tc.WindowStep}
	} else {
		w = &stream.CountWindow{Size: tc.WindowSize}
	}
	dw, _ := w.(stream.DeltaWindower)
	var sigs []string
	process := func(win []rdf.Triple, d *reasoner.Delta) {
		out, err := r.ProcessDelta(win, d)
		if err != nil {
			t.Fatalf("solo run: %v", err)
		}
		sigs = append(sigs, sigOf(out))
	}
	for i, tr := range triples {
		item := stream.Item{Triple: tr, At: timeAt(i)}
		if dw != nil {
			if wd := dw.AddDelta(item); wd != nil {
				var d *reasoner.Delta
				if wd.Incremental {
					d = &reasoner.Delta{Added: wd.Added, Retracted: wd.Retracted}
				}
				process(wd.Window, d)
			}
		} else if win := w.Add(item); win != nil {
			process(win, nil)
		}
	}
	if rest := w.Flush(); len(rest) > 0 {
		process(rest, nil)
	}
	return sigs
}

func timeAt(i int) time.Time {
	return time.Unix(0, int64(i)*int64(time.Millisecond))
}

// TestMultiTenantDifferential is the tentpole correctness gate: N concurrent
// tenants — progen programs × window shapes, local and budgeted — over one
// shared fleet must each produce exactly the answers of the same tenant run
// alone, with zero growth of the process-wide default intern table.
func TestMultiTenantDifferential(t *testing.T) {
	defer testleak.Check(t)()

	type shape struct{ size, step int }
	shapes := []shape{{30, 6}, {24, 24}, {20, 5}, {16, 4}}
	classes := []progen.Config{
		{Derived: 3},
		{Derived: 5, UnaryInputs: 2, BinaryInputs: 2},
		{Derived: 3, Recursion: true, Consts: 4},
		{Derived: 3, Fresh: 0.6},
	}

	srv := NewServer(Config{Workers: 4, QueueDepth: 64})
	defer srv.Close()

	defaultBefore := intern.Default().Stats()

	type tenantRun struct {
		id      string
		tc      TenantConfig
		triples []rdf.Triple
		col     *collector
	}
	var runs []*tenantRun
	for ci, cls := range classes {
		for si, sh := range shapes {
			rnd := rand.New(rand.NewSource(int64(4200 + ci*10 + si)))
			gp := progen.New(rnd, cls)
			col := &collector{}
			tc := TenantConfig{
				Program: gp.Src, Inpre: gp.Inpre, Arities: gp.Arities,
				WindowSize: sh.size, WindowStep: sh.step,
				Handle: col.handle,
			}
			if cls.Fresh > 0 {
				tc.MemoryBudget = 96
			}
			tr := &tenantRun{
				id: fmt.Sprintf("tenant-%d-%d", ci, si), tc: tc,
				triples: gp.Stream(rnd, cls, 180), col: col,
			}
			if err := srv.AddTenant(tr.id, tr.tc); err != nil {
				t.Fatalf("%s: %v\n%s", tr.id, err, gp.Src)
			}
			runs = append(runs, tr)
		}
	}

	var wg sync.WaitGroup
	for _, tr := range runs {
		wg.Add(1)
		go func(tr *tenantRun) {
			defer wg.Done()
			for _, triple := range tr.triples {
				if err := srv.Push(tr.id, triple); err != nil {
					t.Errorf("%s: Push: %v", tr.id, err)
					return
				}
			}
		}(tr)
	}
	wg.Wait()
	if err := srv.DrainAll(); err != nil {
		t.Fatal(err)
	}

	for _, tr := range runs {
		want := soloRun(t, tr.tc, tr.triples)
		got := tr.col.snapshot()
		if len(got) != len(want) {
			t.Fatalf("%s: served %d windows, solo run %d\n%s", tr.id, len(got), len(want), tr.tc.Program)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s window %d: served answers diverge from solo run\nserved: %s\nsolo:   %s\n%s",
					tr.id, i, got[i], want[i], tr.tc.Program)
			}
		}
		row, ok := srv.TenantStats(tr.id)
		if !ok || row.Windows != uint64(len(want)) || row.Errors != 0 || row.Shed != 0 {
			t.Fatalf("%s: stats = %+v, want %d clean windows", tr.id, row, len(want))
		}
	}

	defaultAfter := intern.Default().Stats()
	if defaultAfter.Atoms != defaultBefore.Atoms || defaultAfter.Syms != defaultBefore.Syms ||
		defaultAfter.Preds != defaultBefore.Preds || defaultAfter.Terms != defaultBefore.Terms {
		t.Fatalf("multi-tenant run grew the default intern table: %+v -> %+v", defaultBefore, defaultAfter)
	}

	st := srv.Stats()
	if st.Tenants != len(runs) || st.TotalWindows == 0 || st.TotalErrors != 0 {
		t.Fatalf("server stats = %+v", st)
	}
	if st.P99 == 0 {
		t.Fatal("aggregate p99 latency missing")
	}
}

// plugServer returns a 1-worker server whose fleet is occupied by a "plug"
// tenant sitting in its Handle until release() is called — so other tenants'
// windows pile up deterministically.
func plugServer(t *testing.T, depth int) (srv *Server, release func()) {
	t.Helper()
	srv = NewServer(Config{Workers: 1, QueueDepth: depth})
	gate := make(chan struct{})
	err := srv.AddTenant("plug", TenantConfig{
		Program: "p(X) :- q(X).", Inpre: []string{"q"},
		WindowSize: 1,
		Handle:     func([]rdf.Triple, *reasoner.Output) { <-gate },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Push("plug", rdf.Triple{S: "a", P: "q", O: "b"}); err != nil {
		t.Fatal(err)
	}
	// Wait for the (only) fleet worker to actually pick up the plug window,
	// so subsequent pushes deterministically queue.
	srv.mu.Lock()
	for !srv.tenants["plug"].busy {
		srv.cond.Wait()
	}
	srv.mu.Unlock()
	var once sync.Once
	return srv, func() { once.Do(func() { close(gate) }) }
}

const shedProgram = `
seen(X) :- obs(X, Y).
pair(X, Y) :- obs(X, Y), obs(Y, X).
`

func shedTriples(n int) []rdf.Triple {
	out := make([]rdf.Triple, n)
	for i := range out {
		out[i] = rdf.Triple{S: fmt.Sprintf("e%d", i), P: "obs", O: fmt.Sprintf("e%d", (i*7)%n)}
	}
	return out
}

// TestShedOldestBreaksDeltaChainSafely pins the overload path: with the
// fleet plugged, pushes overflow a depth-2 queue and shed the oldest
// windows; the windows that survive must still produce exactly their
// from-scratch answers even though their deltas referenced shed neighbors.
func TestShedOldestBreaksDeltaChainSafely(t *testing.T) {
	defer testleak.Check(t)()
	srv, release := plugServer(t, 2)
	defer srv.Close()

	col := &collector{}
	tc := TenantConfig{
		Program: shedProgram, Inpre: []string{"obs"},
		WindowSize: 12, WindowStep: 3, QueueDepth: 2,
		Overflow: ShedOldest, Handle: col.handle,
	}
	if err := srv.AddTenant("shedder", tc); err != nil {
		t.Fatal(err)
	}
	triples := shedTriples(27) // emits windows at items 12,15,18,21,24,27
	var kept [][]rdf.Triple
	w := &stream.SlidingCountWindow{Size: 12, Step: 3}
	for i, tr := range triples {
		if err := srv.Push("shedder", tr); err != nil {
			t.Fatal(err)
		}
		if win := w.Add(stream.Item{Triple: tr, At: timeAt(i)}); win != nil {
			kept = append(kept, win)
		}
	}
	row, _ := srv.TenantStats("shedder")
	if row.Shed == 0 {
		t.Fatalf("no windows shed: stats %+v", row)
	}
	// Only the last QueueDepth emitted windows survive.
	kept = kept[len(kept)-2:]
	release()
	if err := srv.Drain("shedder"); err != nil {
		t.Fatal(err)
	}

	// Oracle: each surviving window processed from scratch, alone.
	prog, err := parser.Parse(tc.Program)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, win := range kept {
		cfg := reasoner.Config{Program: prog, Inpre: tc.Inpre}
		cfg.GroundOpts.Intern = intern.NewTable()
		r, err := reasoner.NewR(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := r.Process(win)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, sigOf(out))
	}
	got := col.snapshot()
	if len(got) != len(want) {
		t.Fatalf("served %d windows after shedding, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("surviving window %d corrupted by the shed delta chain\nserved: %s\nscratch: %s", i, got[i], want[i])
		}
	}
}

// TestBlockBackpressure pins the blocking policy: with the fleet plugged and
// a depth-1 queue, the overflowing Push must wait (counted) and complete
// only after the fleet frees up.
func TestBlockBackpressure(t *testing.T) {
	defer testleak.Check(t)()
	srv, release := plugServer(t, 1)
	defer srv.Close()

	col := &collector{}
	err := srv.AddTenant("blocker", TenantConfig{
		Program: shedProgram, Inpre: []string{"obs"},
		WindowSize: 4, QueueDepth: 1, Overflow: Block, Handle: col.handle,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, tr := range shedTriples(12) { // 3 windows; queue holds 1
			if err := srv.Push("blocker", tr); err != nil {
				t.Errorf("Push: %v", err)
				return
			}
		}
	}()
	select {
	case <-done:
		t.Fatal("pushes completed although the fleet is plugged and the queue is full")
	default:
	}
	release()
	<-done
	if err := srv.Drain("blocker"); err != nil {
		t.Fatal(err)
	}
	row, _ := srv.TenantStats("blocker")
	if row.Blocked == 0 {
		t.Fatalf("no blocked pushes recorded: %+v", row)
	}
	if row.Shed != 0 {
		t.Fatalf("blocking policy shed windows: %+v", row)
	}
	if got := col.snapshot(); len(got) != 3 {
		t.Fatalf("served %d windows, want all 3", len(got))
	}
}

// TestTenantLifecycle exercises add/remove/drain mid-traffic: removing one
// tenant (with queued windows) must not disturb a neighbor's answers.
func TestTenantLifecycle(t *testing.T) {
	defer testleak.Check(t)()
	srv := NewServer(Config{Workers: 2, QueueDepth: 64})
	defer srv.Close()

	keepCol := &collector{}
	keepTC := TenantConfig{
		Program: shedProgram, Inpre: []string{"obs"},
		WindowSize: 10, WindowStep: 5, Handle: keepCol.handle,
	}
	if err := srv.AddTenant("keeper", keepTC); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddTenant("victim", TenantConfig{
		Program: shedProgram, Inpre: []string{"obs"}, WindowSize: 5,
	}); err != nil {
		t.Fatal(err)
	}
	triples := shedTriples(60)
	for i, tr := range triples[:31] {
		if err := srv.Push("keeper", tr); err != nil {
			t.Fatal(err)
		}
		if err := srv.Push("victim", tr); err != nil {
			t.Fatal(err)
		}
		if i == 30 {
			if err := srv.RemoveTenant("victim"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := srv.Push("victim", triples[31]); err != ErrUnknownTenant {
		t.Fatalf("push to removed tenant: err = %v", err)
	}
	// Re-adding under the same id works, and the keeper is undisturbed.
	if err := srv.AddTenant("victim", TenantConfig{
		Program: shedProgram, Inpre: []string{"obs"}, WindowSize: 5,
	}); err != nil {
		t.Fatal(err)
	}
	for _, tr := range triples[31:] {
		if err := srv.Push("keeper", tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.DrainAll(); err != nil {
		t.Fatal(err)
	}
	want := soloRun(t, keepTC, triples)
	got := keepCol.snapshot()
	if len(got) != len(want) {
		t.Fatalf("keeper served %d windows, solo %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("keeper window %d diverged after neighbor removal", i)
		}
	}
}

// TestRemoteTenantsShareWorker runs two remote-backed tenants against one
// shared transport worker (one session per tenant on the same process) and
// checks both against their solo-run oracles. Mid-stream the fleet changes
// under them: a second worker joins after a third of the pushes and the
// first leaves after two thirds, and neither change may cost an answer or a
// local fallback.
func TestRemoteTenantsShareWorker(t *testing.T) {
	defer testleak.Check(t)()
	var addrs []string
	for i := 0; i < 2; i++ {
		ws, err := transport.NewServer("127.0.0.1:0", reasoner.NewWorkerHandler(), transport.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		go ws.Serve()
		defer ws.Close()
		addrs = append(addrs, ws.Addr())
	}
	first, second := addrs[0], addrs[1]

	srv := NewServer(Config{Workers: 2, QueueDepth: 64})
	defer srv.Close()

	var runs []*struct {
		id      string
		tc      TenantConfig
		triples []rdf.Triple
		col     *collector
	}
	for i := 0; i < 2; i++ {
		rnd := rand.New(rand.NewSource(int64(7700 + i)))
		gp := progen.New(rnd, progen.Config{Derived: 3, UnaryInputs: 2, BinaryInputs: 2})
		col := &collector{}
		tc := TenantConfig{
			Program: gp.Src, Inpre: gp.Inpre, Arities: gp.Arities,
			WindowSize: 20, WindowStep: 5,
			Workers: []string{first},
			Handle:  col.handle,
		}
		id := fmt.Sprintf("remote-%d", i)
		if err := srv.AddTenant(id, tc); err != nil {
			t.Fatalf("%s: %v\n%s", id, err, gp.Src)
		}
		runs = append(runs, &struct {
			id      string
			tc      TenantConfig
			triples []rdf.Triple
			col     *collector
		}{id, tc, gp.Stream(rnd, progen.Config{Derived: 3, UnaryInputs: 2, BinaryInputs: 2}, 100), col})
	}
	// Interleave the tenants' pushes so both see the join and the leave
	// mid-stream.
	n := len(runs[0].triples)
	for i := 0; i < n; i++ {
		switch i {
		case n / 3:
			if err := srv.AddWorker(second); err != nil {
				t.Fatalf("AddWorker: %v", err)
			}
		case 2 * n / 3:
			if err := srv.RemoveWorker(first); err != nil {
				t.Fatalf("RemoveWorker: %v", err)
			}
		}
		for _, tr := range runs {
			if err := srv.Push(tr.id, tr.triples[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := srv.DrainAll(); err != nil {
		t.Fatal(err)
	}
	for _, tr := range runs {
		ts, ok := srv.TenantTransportStats(tr.id)
		if !ok {
			t.Fatalf("%s: no transport stats for a remote tenant", tr.id)
		}
		if ts.LocalFallbacks != 0 {
			t.Errorf("%s: %d local fallbacks across the join and leave", tr.id, ts.LocalFallbacks)
		}
		solo := tr.tc
		solo.Workers = nil // oracle runs locally; DPR ≡ R is the invariant
		want := soloRun(t, solo, tr.triples)
		got := tr.col.snapshot()
		if len(got) != len(want) {
			t.Fatalf("%s: served %d windows, solo %d", tr.id, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s window %d: remote-served answers diverge from solo run", tr.id, i)
			}
		}
	}
}

// TestServerDrainLeavesNoGoroutines is the dedicated leak gate: a full
// add/push/drain/close cycle must leave zero fleet goroutines behind.
func TestServerDrainLeavesNoGoroutines(t *testing.T) {
	check := testleak.Check(t)
	srv := NewServer(Config{Workers: 6})
	if err := srv.AddTenant("a", TenantConfig{
		Program: shedProgram, Inpre: []string{"obs"}, WindowSize: 8,
	}); err != nil {
		t.Fatal(err)
	}
	for _, tr := range shedTriples(40) {
		if err := srv.Push("a", tr); err != nil {
			t.Fatal(err)
		}
	}
	srv.Resize(2) // shrink mid-run
	if err := srv.DrainAll(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	check()
}

// TestResizeGrowsAndShrinks pins the elastic fleet bookkeeping.
func TestResizeGrowsAndShrinks(t *testing.T) {
	defer testleak.Check(t)()
	srv := NewServer(Config{Workers: 2})
	defer srv.Close()
	if got := srv.Workers(); got != 2 {
		t.Fatalf("workers = %d", got)
	}
	srv.Resize(8)
	if got := srv.Workers(); got != 8 {
		t.Fatalf("workers after grow = %d", got)
	}
	srv.Resize(1)
	if got := srv.Workers(); got != 1 {
		t.Fatalf("workers after shrink = %d", got)
	}
}
