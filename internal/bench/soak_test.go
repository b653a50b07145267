package bench

import (
	"runtime"
	"testing"

	"streamrule/internal/asp/intern"
	"streamrule/internal/asp/parser"
	"streamrule/internal/reasoner"
	"streamrule/internal/stream"
)

// TestSoakBoundedMemoryEviction runs hundreds of sliding windows of a
// fresh-constants stream under a MemoryBudget and asserts that the live
// intern-table entries and the heap stay within a window-count-independent
// bound — the "fast forever" property rotation exists for. A control without
// the budget proves the assertions bite: its table grows past the bound on
// the same stream prefix.
func TestSoakBoundedMemoryEviction(t *testing.T) {
	windows := 520
	if testing.Short() {
		windows = 60
	}
	const size, step, budget = 60, 20, 400
	// Between windows the table may exceed the budget by at most one
	// window's worth of fresh atoms (rotation runs after each window).
	const headroom = 300

	prog, err := parser.Parse(ProgramP)
	if err != nil {
		t.Fatal(err)
	}
	cfg := reasoner.Config{
		Program: prog, Inpre: Inpre, OutputPreds: Outputs,
		MemoryBudget: budget,
	}
	r, err := reasoner.NewR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	triples := FreshTraffic(9, size+step*windows)

	w := &stream.SlidingCountWindow{Size: size, Step: step}
	processed, maxLive := 0, 0
	var heapMid uint64
	readHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, tr := range triples {
		wd := w.AddDelta(stream.Item{Triple: tr})
		if wd == nil {
			continue
		}
		var d *reasoner.Delta
		if wd.Incremental {
			d = &reasoner.Delta{Added: wd.Added, Retracted: wd.Retracted}
		}
		if _, err := r.ProcessDelta(wd.Window, d); err != nil {
			t.Fatalf("window %d: %v", processed, err)
		}
		processed++
		if live := r.Stats().Table.Atoms; live > maxLive {
			maxLive = live
		}
		if processed == windows/2 {
			heapMid = readHeap()
		}
		if processed >= windows {
			break
		}
	}
	if processed < windows {
		t.Fatalf("stream exhausted after %d of %d windows", processed, windows)
	}
	heapEnd := readHeap()

	st := r.Stats()
	if st.Table.Rotations < 2 {
		t.Errorf("only %d rotations over %d fresh-constant windows", st.Table.Rotations, windows)
	}
	if maxLive > budget+headroom {
		t.Errorf("live intern entries peaked at %d, want <= %d (budget %d + headroom %d)",
			maxLive, budget+headroom, budget, headroom)
	}
	if st.Table.Atoms > budget+headroom {
		t.Errorf("final live entries = %d, want <= %d", st.Table.Atoms, budget+headroom)
	}
	// The heap must not scale with the number of windows processed: from the
	// midpoint to the end it may wiggle (GC, map growth) but not grow by
	// anything near another half-stream of atoms.
	if heapEnd > heapMid && heapEnd-heapMid > 8<<20 {
		t.Errorf("heap grew %d bytes between window %d and window %d", heapEnd-heapMid, windows/2, windows)
	}

	// Burst and recovery: a few giant windows blow the table far past its
	// steady state, then normal-sized windows resume. Rotation must not only
	// evict the burst's entries but rebuild the peak-sized containers — the
	// Shrinks counter ticks and the heap actually falls back down. (Go maps
	// never release their buckets, so without the rebuild the burst's
	// footprint would be permanent no matter how much rotation evicts.)
	burst := FreshTraffic(11, 18000)
	for i := 0; i+6000 <= len(burst); i += 6000 {
		if _, err := r.Process(burst[i : i+6000]); err != nil {
			t.Fatalf("burst window at %d: %v", i, err)
		}
	}
	heapBurst := readHeap()
	recovery := FreshTraffic(13, 2400)
	for i := 0; i+size <= len(recovery); i += size {
		if _, err := r.Process(recovery[i : i+size]); err != nil {
			t.Fatalf("recovery window at %d: %v", i, err)
		}
	}
	heapRecovered := readHeap()
	st = r.Stats()
	if st.Table.Shrinks < 1 {
		t.Errorf("rotation never shrank the peak-sized containers after the burst (live %d, rotations %d)",
			st.Table.Atoms, st.Table.Rotations)
	}
	if heapRecovered+1<<20 > heapBurst {
		t.Errorf("heap did not fall after the burst: %d bytes at burst peak, %d after recovery",
			heapBurst, heapRecovered)
	}
	if maxLive := st.Table.Atoms; maxLive > budget+headroom {
		t.Errorf("live entries settled at %d after the burst, want <= %d", maxLive, budget+headroom)
	}

	// Control: the identical reasoner without a budget (private table, so
	// the default table is not polluted) exceeds the bound on the same
	// stream — the assertions above are not vacuous.
	ctrlCfg := cfg
	ctrlCfg.MemoryBudget = 0
	ctrlCfg.GroundOpts.Intern = intern.NewTable()
	ctrl, err := reasoner.NewR(ctrlCfg)
	if err != nil {
		t.Fatal(err)
	}
	cw := &stream.SlidingCountWindow{Size: size, Step: step}
	ctrlWindows := 0
	for _, tr := range triples {
		wd := cw.AddDelta(stream.Item{Triple: tr})
		if wd == nil {
			continue
		}
		var d *reasoner.Delta
		if wd.Incremental {
			d = &reasoner.Delta{Added: wd.Added, Retracted: wd.Retracted}
		}
		if _, err := ctrl.ProcessDelta(wd.Window, d); err != nil {
			t.Fatal(err)
		}
		ctrlWindows++
		if ctrlWindows >= windows {
			break
		}
	}
	if got := ctrl.Stats().Table.Atoms; got <= budget+headroom {
		t.Errorf("control table holds %d atoms after %d windows; bound %d is vacuous",
			got, ctrlWindows, budget+headroom)
	}
	if got := ctrl.Stats().Table.Rotations; got != 0 {
		t.Errorf("control rotated %d times without a budget", got)
	}
}
