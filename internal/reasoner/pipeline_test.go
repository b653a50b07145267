package reasoner

import (
	"encoding/gob"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"streamrule/internal/asp/parser"
	"streamrule/internal/core"
	"streamrule/internal/dfp"
	"streamrule/internal/progen"
	"streamrule/internal/rdf"
	"streamrule/internal/stream"
	"streamrule/internal/testleak"
	"streamrule/internal/transport"
)

// runPipelinedDifferential drives a pipelined DPR through Submit/Collect at
// its configured depth — submitting ahead exactly like the Pipeline's
// submit-ahead driver — and checks every collected window against fresh PR
// and R oracles. Results must surface strictly in submission order.
func runPipelinedDifferential(t *testing.T, label string, dpr *DPR, prOracle *PR, rOracle *R, emissions []stream.WindowDelta) {
	t.Helper()
	depth := dpr.MaxInFlight()
	type pend struct {
		wi     int
		window []rdf.Triple
	}
	var queue []pend
	collect := func() {
		out, err := dpr.Collect()
		if err != nil {
			t.Fatalf("%s window %d: Collect: %v", label, queue[0].wi, err)
		}
		head := queue[0]
		queue = queue[1:]
		wantPR, err := prOracle.Process(head.window)
		if err != nil {
			t.Fatalf("%s window %d: PR oracle: %v", label, head.wi, err)
		}
		wantR, err := rOracle.Process(head.window)
		if err != nil {
			t.Fatalf("%s window %d: R oracle: %v", label, head.wi, err)
		}
		if out.Skipped != wantPR.Skipped {
			t.Fatalf("%s window %d: skipped = %d, PR oracle %d", label, head.wi, out.Skipped, wantPR.Skipped)
		}
		gs, ps, rs := answerKeySigs(out.Answers), answerKeySigs(wantPR.Answers), answerKeySigs(wantR.Answers)
		if !slices.Equal(gs, ps) {
			t.Fatalf("%s window %d: pipelined DPR diverges from PR\nDPR: %v\nPR:  %v", label, head.wi, gs, ps)
		}
		if !slices.Equal(gs, rs) {
			t.Fatalf("%s window %d: pipelined DPR diverges from monolithic R\nDPR: %v\nR:   %v", label, head.wi, gs, rs)
		}
	}
	for wi, wd := range emissions {
		var d *Delta
		if wd.Incremental {
			d = &Delta{Added: wd.Added, Retracted: wd.Retracted}
		}
		if err := dpr.Submit(wd.Window, d); err != nil {
			t.Fatalf("%s window %d: Submit: %v", label, wi, err)
		}
		queue = append(queue, pend{wi, wd.Window})
		if len(queue) >= depth {
			collect()
		}
	}
	for len(queue) > 0 {
		collect()
	}
}

// TestDifferentialPipelinedVsSerial is the pipelining acceptance gate:
// driving the DPR submit-ahead at depth 2 and 4 must produce answer sets
// identical to the in-process PR and the monolithic R on every window, over
// the progen program classes and both window shapes — including a budgeted
// fresh-constant stream where worker tables rotate mid-pipeline.
func TestDifferentialPipelinedVsSerial(t *testing.T) {
	type winCfg struct{ size, step int }
	windows := []winCfg{
		{20, 5},  // the paper's sliding shape
		{20, 20}, // tumbling degenerate
	}
	programs := []struct {
		name   string
		cfg    progen.Config
		budget int
	}{
		{"flat", progen.Config{Derived: 3}, 0},
		{"negation-heavy", progen.Config{Derived: 5, UnaryInputs: 2, BinaryInputs: 2}, 0},
		{"recursive", progen.Config{Derived: 3, Recursion: true, Consts: 4}, 0},
		{"flat-fresh-budgeted", progen.Config{Derived: 3, Fresh: 0.6}, 96},
	}
	workers := startWorkers(t, 2)
	for pi, pc := range programs {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(int64(1300 + pi)))
			gp := progen.New(rnd, pc.cfg)
			prog, err := parser.Parse(gp.Src)
			if err != nil {
				t.Fatalf("generated program does not parse: %v\n%s", err, gp.Src)
			}
			cfg := Config{Program: prog, Inpre: gp.Inpre, Arities: dfp.Arities(gp.Arities)}
			var triples []rdf.Triple
			if pc.budget > 0 {
				seq := 0
				triples = gp.StreamFresh(rnd, pc.cfg, 160, &seq)
			} else {
				triples = gp.Stream(rnd, pc.cfg, 140)
			}
			analysis, err := core.Analyze(prog, gp.Inpre, 1.0)
			if err != nil {
				t.Skipf("program has no partitioning plan: %v", err)
			}
			for _, wc := range windows {
				emissions := emitWindows(triples, wc.size, wc.step)
				for _, depth := range []int{2, 4} {
					dprCfg := cfg
					dprCfg.MemoryBudget = pc.budget
					opts := testDPROptions(gp.Src, workers)
					opts.MaxInFlight = depth
					dpr, err := NewDPR(dprCfg, NewPlanPartitioner(analysis.Plan), opts)
					if err != nil {
						t.Fatalf("NewDPR: %v", err)
					}
					prOracle, err := NewPR(cfg, NewPlanPartitioner(analysis.Plan))
					if err != nil {
						t.Fatal(err)
					}
					rOracle, err := NewR(cfg)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s[size=%d step=%d depth=%d]", pc.name, wc.size, wc.step, depth)
					runPipelinedDifferential(t, label, dpr, prOracle, rOracle, emissions)

					ts := dpr.TransportStats()
					if ts.RemoteWindows == 0 {
						t.Errorf("%s: the distributed path was never exercised", label)
					}
					if ts.LocalFallbacks > 0 {
						t.Errorf("%s: %d unexpected local fallbacks with healthy workers", label, ts.LocalFallbacks)
					}
					if len(emissions) > depth && ts.MeanInFlight() <= 1.0 {
						t.Errorf("%s: mean in-flight depth %.2f; the pipeline never filled", label, ts.MeanInFlight())
					}
					dpr.Close()
				}
			}
		})
	}
}

// TestDistributedWorkerDeathMidPipeline kills the only worker while windows
// are in flight: the already-submitted legs lose their responses and every
// later window loses its session, yet the coordinator must keep producing
// oracle-identical answers through the local fallback.
func TestDistributedWorkerDeathMidPipeline(t *testing.T) {
	t.Cleanup(testleak.Check(t))
	f := newDistributedFixture(t)
	srv, err := transport.NewServer("127.0.0.1:0", NewWorkerHandler(), transport.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	opts := testDPROptions(f.src, []string{srv.Addr()})
	opts.StragglerTimeout = 2 * time.Second
	opts.DialTimeout = time.Second
	opts.MaxInFlight = 3
	dpr, err := NewDPR(f.cfg, NewPlanPartitioner(f.plan.Plan), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer dpr.Close()
	oracle, err := NewR(f.cfg)
	if err != nil {
		t.Fatal(err)
	}

	depth := dpr.MaxInFlight()
	type pend struct {
		wi     int
		window []rdf.Triple
	}
	var queue []pend
	collect := func() {
		out, err := dpr.Collect()
		if err != nil {
			t.Fatalf("window %d: Collect: %v", queue[0].wi, err)
		}
		head := queue[0]
		queue = queue[1:]
		want, err := oracle.Process(head.window)
		if err != nil {
			t.Fatalf("window %d: oracle: %v", head.wi, err)
		}
		if gs, ws := answerKeySigs(out.Answers), answerKeySigs(want.Answers); !slices.Equal(gs, ws) {
			t.Fatalf("window %d: answers diverge\nDPR:    %v\noracle: %v", head.wi, gs, ws)
		}
	}
	killAt := len(f.emissions) / 2
	for wi, wd := range f.emissions {
		var d *Delta
		if wd.Incremental {
			d = &Delta{Added: wd.Added, Retracted: wd.Retracted}
		}
		if err := dpr.Submit(wd.Window, d); err != nil {
			t.Fatalf("window %d: Submit: %v", wi, err)
		}
		queue = append(queue, pend{wi, wd.Window})
		if wi == killAt {
			// The worker dies with the pipeline full: these legs were
			// submitted and will never be answered.
			srv.Close()
		}
		if len(queue) >= depth {
			collect()
		}
	}
	for len(queue) > 0 {
		collect()
	}
	ts := dpr.TransportStats()
	if ts.RemoteWindows == 0 {
		t.Error("worker never served a window before dying")
	}
	if ts.LocalFallbacks == 0 {
		t.Error("worker death mid-pipeline never forced a local fallback")
	}
	// The books must balance: every partition window of every processed
	// window is accounted exactly once, remote or fallback — even when legs
	// flipped from remote to fallback mid-pipeline. A double count (or a
	// lost leg) here would poison the per-partition load rows.
	if got, want := ts.RemoteWindows+ts.LocalFallbacks, int64(len(f.emissions)*dpr.NumPartitions()); got != want {
		t.Errorf("books don't balance after mid-pipeline death: remote %d + fallback %d = %d, want windows x partitions = %d",
			ts.RemoteWindows, ts.LocalFallbacks, got, want)
	}
}

// TestDistributedTinyFramePipelined caps frames below any real window with
// the pipeline enabled: every submit fails cleanly at the wire and the
// fallback must still deliver correct answers in order.
func TestDistributedTinyFramePipelined(t *testing.T) {
	f := newDistributedFixture(t)
	srv, err := transport.NewServer("127.0.0.1:0", NewWorkerHandler(), transport.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	opts := testDPROptions(f.src, []string{srv.Addr()})
	opts.MaxFrame = 640 // the handshake fits; no window does
	opts.StragglerTimeout = 2 * time.Second
	opts.MaxInFlight = 2
	dpr, err := NewDPR(f.cfg, NewPlanPartitioner(f.plan.Plan), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer dpr.Close()
	oracle, err := NewR(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	emissions := f.emissions[:4]
	var windows [][]rdf.Triple
	for wi, wd := range emissions {
		var d *Delta
		if wd.Incremental {
			d = &Delta{Added: wd.Added, Retracted: wd.Retracted}
		}
		if err := dpr.Submit(wd.Window, d); err != nil {
			t.Fatalf("window %d: Submit: %v", wi, err)
		}
		windows = append(windows, wd.Window)
		if len(windows) >= 2 {
			out, err := dpr.Collect()
			if err != nil {
				t.Fatalf("Collect: %v", err)
			}
			want, err := oracle.Process(windows[0])
			if err != nil {
				t.Fatal(err)
			}
			if gs, ws := answerKeySigs(out.Answers), answerKeySigs(want.Answers); !slices.Equal(gs, ws) {
				t.Fatalf("answers diverge\nDPR:    %v\noracle: %v", gs, ws)
			}
			windows = windows[1:]
		}
	}
	for len(windows) > 0 {
		out, err := dpr.Collect()
		if err != nil {
			t.Fatalf("Collect: %v", err)
		}
		want, err := oracle.Process(windows[0])
		if err != nil {
			t.Fatal(err)
		}
		if gs, ws := answerKeySigs(out.Answers), answerKeySigs(want.Answers); !slices.Equal(gs, ws) {
			t.Fatalf("answers diverge\nDPR:    %v\noracle: %v", gs, ws)
		}
		windows = windows[1:]
	}
	if ts := dpr.TransportStats(); ts.LocalFallbacks == 0 {
		t.Error("oversized frames never forced a local fallback")
	}
}

// countWriter measures what a raw-triple request protocol would have cost.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// TestRequestDictionaryHitRate pins the request-side wire economics on a
// repeating-vocabulary sliding stream: after warmup the coordinator ships
// only dictionary-coded deltas, so (1) the request dictionary hit rate
// exceeds 90% and (2) steady-state request bytes per window are at least 5x
// smaller than shipping each window as raw triples over the same kind of
// gob stream (the v1 protocol's request shape).
func TestRequestDictionaryHitRate(t *testing.T) {
	src := `
very_slow_speed(X) :- average_speed(X,Y), Y < 20.
many_cars(X) :- car_number(X,Y), Y > 40.
traffic_jam(X) :- very_slow_speed(X), many_cars(X), not traffic_light(X).
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	inpre := []string{"average_speed", "car_number", "traffic_light"}
	cfg := Config{Program: prog, Inpre: inpre, OutputPreds: []string{"traffic_jam"}}

	// Bounded vocabulary recurring forever; a long window with a small step
	// keeps the per-window overlap high — the delta-shipping sweet spot the
	// paper's sliding windows live in.
	rnd := rand.New(rand.NewSource(43))
	var triples []rdf.Triple
	for i := 0; i < 900; i++ {
		loc := fmt.Sprintf("l%d", rnd.Intn(6))
		switch v := rnd.Intn(10); {
		case v < 5:
			triples = append(triples, rdf.Triple{S: loc, P: "average_speed", O: fmt.Sprint(rnd.Intn(40))})
		case v < 9:
			triples = append(triples, rdf.Triple{S: loc, P: "car_number", O: fmt.Sprint(30 + rnd.Intn(40))})
		default:
			triples = append(triples, rdf.Triple{S: "l5", P: "traffic_light", O: "true"})
		}
	}
	emissions := emitWindows(triples, 120, 20)

	analysis, err := core.Analyze(prog, inpre, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	workers := startWorkers(t, 2)
	dpr, err := NewDPR(cfg, NewPlanPartitioner(analysis.Plan), testDPROptions(src, workers))
	if err != nil {
		t.Fatal(err)
	}
	defer dpr.Close()

	// The raw baseline: the same windows as one persistent gob stream of
	// (seq, []Triple) messages — what request shipping cost before the
	// dictionary-coded deltas.
	var raw countWriter
	rawEnc := gob.NewEncoder(&raw)
	type rawReq struct {
		Seq    uint64
		Window []rdf.Triple
	}

	const warmup = 3
	var sentWarm, rawWarm int64
	for wi, wd := range emissions {
		var d *Delta
		if wd.Incremental {
			d = &Delta{Added: wd.Added, Retracted: wd.Retracted}
		}
		if _, err := dpr.ProcessDelta(wd.Window, d); err != nil {
			t.Fatalf("window %d: %v", wi, err)
		}
		if err := rawEnc.Encode(rawReq{Seq: uint64(wi), Window: wd.Window}); err != nil {
			t.Fatal(err)
		}
		if wi == warmup-1 {
			sentWarm = dpr.TransportStats().BytesSent
			rawWarm = raw.n
		}
	}
	ts := dpr.TransportStats()
	if ts.RemoteWindows == 0 || ts.LocalFallbacks > 0 {
		t.Fatalf("distributed path compromised: %+v", ts)
	}
	if ts.ReqDictRefs == 0 {
		t.Fatal("no request-side dictionary references recorded")
	}
	if hr := ts.ReqDictHitRate(); hr <= 0.9 {
		t.Errorf("request dictionary hit rate %.3f, want > 0.9 (refs %d, shipped %d)",
			hr, ts.ReqDictRefs, ts.ReqDictShipped)
	}
	if ts.DeltaPartWindows == 0 {
		t.Error("no partition window ever shipped as a delta")
	}
	steady := int64(len(emissions) - warmup)
	if steady <= 0 {
		t.Fatal("not enough windows past warmup")
	}
	reqPerWin := (ts.BytesSent - sentWarm) / steady
	rawPerWin := (raw.n - rawWarm) / steady
	if reqPerWin <= 0 || rawPerWin <= 0 {
		t.Fatalf("degenerate byte counts: req %d/win, raw %d/win", reqPerWin, rawPerWin)
	}
	if rawPerWin < 5*reqPerWin {
		t.Errorf("steady-state request traffic %dB/win vs %dB/win raw: less than the 5x reduction gate",
			reqPerWin, rawPerWin)
	}
}

// delayedCopy relays src to dst delivering every chunk delay later, without
// throttling throughput — pure added latency, like a long link.
func delayedCopy(dst, src net.Conn, delay time.Duration) {
	type chunk struct {
		at   time.Time
		data []byte
	}
	ch := make(chan chunk, 1024)
	go func() {
		defer close(ch)
		for {
			buf := make([]byte, 32<<10)
			n, err := src.Read(buf)
			if n > 0 {
				ch <- chunk{at: time.Now().Add(delay), data: buf[:n]}
			}
			if err != nil {
				return
			}
		}
	}()
	defer dst.Close()
	for c := range ch {
		time.Sleep(time.Until(c.at))
		if _, err := dst.Write(c.data); err != nil {
			go func() {
				for range ch {
				}
			}()
			return
		}
	}
}

// startLatencyProxy fronts target with a TCP proxy adding delay in each
// direction (so one request/response round pays 2*delay of wire latency).
func startLatencyProxy(t *testing.T, target string, delay time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				conn.Close()
				continue
			}
			go delayedCopy(up, conn, delay)
			go delayedCopy(conn, up, delay)
		}
	}()
	return ln.Addr().String()
}

// TestPipelinedDPRBeatsSerial is the latency acceptance gate: behind a link
// with injected latency, the pipelined engine (depth 3) must finish the same
// stream at least 1.5x faster than lockstep — with identical answers. The
// serial run pays the round trip on every window; the pipelined run pays it
// roughly once.
func TestPipelinedDPRBeatsSerial(t *testing.T) {
	f := newDistributedFixture(t)
	srv, err := transport.NewServer("127.0.0.1:0", NewWorkerHandler(), transport.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	proxy := startLatencyProxy(t, srv.Addr(), 25*time.Millisecond)

	runSerial := func() ([][]string, time.Duration) {
		opts := testDPROptions(f.src, []string{proxy})
		dpr, err := NewDPR(f.cfg, NewPlanPartitioner(f.plan.Plan), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer dpr.Close()
		var sigs [][]string
		start := time.Now()
		for wi, wd := range f.emissions {
			var d *Delta
			if wd.Incremental {
				d = &Delta{Added: wd.Added, Retracted: wd.Retracted}
			}
			out, err := dpr.ProcessDelta(wd.Window, d)
			if err != nil {
				t.Fatalf("serial window %d: %v", wi, err)
			}
			sigs = append(sigs, answerKeySigs(out.Answers))
		}
		elapsed := time.Since(start)
		if ts := dpr.TransportStats(); ts.LocalFallbacks > 0 {
			t.Fatalf("serial run fell back locally %d times; the timing is meaningless", ts.LocalFallbacks)
		}
		return sigs, elapsed
	}
	runPipelined := func(depth int) ([][]string, time.Duration) {
		opts := testDPROptions(f.src, []string{proxy})
		opts.MaxInFlight = depth
		dpr, err := NewDPR(f.cfg, NewPlanPartitioner(f.plan.Plan), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer dpr.Close()
		var sigs [][]string
		inFlight := 0
		start := time.Now()
		for wi, wd := range f.emissions {
			var d *Delta
			if wd.Incremental {
				d = &Delta{Added: wd.Added, Retracted: wd.Retracted}
			}
			if err := dpr.Submit(wd.Window, d); err != nil {
				t.Fatalf("pipelined window %d: Submit: %v", wi, err)
			}
			inFlight++
			if inFlight == depth {
				out, err := dpr.Collect()
				if err != nil {
					t.Fatalf("pipelined Collect: %v", err)
				}
				sigs = append(sigs, answerKeySigs(out.Answers))
				inFlight--
			}
		}
		for ; inFlight > 0; inFlight-- {
			out, err := dpr.Collect()
			if err != nil {
				t.Fatalf("pipelined Collect: %v", err)
			}
			sigs = append(sigs, answerKeySigs(out.Answers))
		}
		elapsed := time.Since(start)
		ts := dpr.TransportStats()
		if ts.LocalFallbacks > 0 {
			t.Fatalf("pipelined run fell back locally %d times; the timing is meaningless", ts.LocalFallbacks)
		}
		if ts.MeanInFlight() <= 1.2 {
			t.Errorf("mean in-flight depth %.2f; the pipeline never filled", ts.MeanInFlight())
		}
		return sigs, elapsed
	}

	serialSigs, serialTime := runSerial()
	pipeSigs, pipeTime := runPipelined(3)

	if len(serialSigs) != len(pipeSigs) {
		t.Fatalf("window counts diverge: serial %d, pipelined %d", len(serialSigs), len(pipeSigs))
	}
	for wi := range serialSigs {
		if !slices.Equal(serialSigs[wi], pipeSigs[wi]) {
			t.Fatalf("window %d: answers diverge between serial and pipelined\nserial:    %v\npipelined: %v",
				wi, serialSigs[wi], pipeSigs[wi])
		}
	}
	if pipeTime*3/2 > serialTime {
		t.Errorf("pipelined %v vs serial %v: speedup %.2fx, want >= 1.5x",
			pipeTime, serialTime, float64(serialTime)/float64(pipeTime))
	}
	t.Logf("serial %v, pipelined %v (%.1fx)", serialTime, pipeTime, float64(serialTime)/float64(pipeTime))
}
