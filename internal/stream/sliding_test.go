package stream

import (
	"fmt"
	"testing"
	"testing/quick"

	"streamrule/internal/rdf"
)

func feedCount(w Windower, n int) [][]rdf.Triple {
	var wins [][]rdf.Triple
	for i := 0; i < n; i++ {
		it := Item{Triple: rdf.Triple{S: fmt.Sprintf("s%d", i), P: "p", O: "o"}}
		if win := w.Add(it); win != nil {
			wins = append(wins, win)
		}
	}
	return wins
}

func TestSlidingCountWindowOverlap(t *testing.T) {
	w := &SlidingCountWindow{Size: 4, Step: 2}
	wins := feedCount(w, 10)
	// Full windows at items 4, 6, 8, 10.
	if len(wins) != 4 {
		t.Fatalf("windows = %d", len(wins))
	}
	for _, win := range wins {
		if len(win) != 4 {
			t.Errorf("window size = %d", len(win))
		}
	}
	// Consecutive windows overlap by Size-Step items.
	if wins[0][2] != wins[1][0] || wins[0][3] != wins[1][1] {
		t.Errorf("windows do not overlap: %v then %v", wins[0], wins[1])
	}
	if w.Flush() != nil {
		t.Error("flush after full windows must be empty")
	}
}

func TestSlidingCountDegeneratesToTumbling(t *testing.T) {
	slide := &SlidingCountWindow{Size: 3, Step: 3}
	tumble := &CountWindow{Size: 3}
	ws := feedCount(slide, 9)
	wt := feedCount(tumble, 9)
	if len(ws) != len(wt) {
		t.Fatalf("%d vs %d windows", len(ws), len(wt))
	}
	for i := range ws {
		if len(ws[i]) != len(wt[i]) {
			t.Fatalf("window %d sizes differ", i)
		}
		for j := range ws[i] {
			if ws[i][j] != wt[i][j] {
				t.Errorf("window %d item %d: %v vs %v", i, j, ws[i][j], wt[i][j])
			}
		}
	}
}

func TestSlidingCountPartialFlush(t *testing.T) {
	w := &SlidingCountWindow{Size: 10, Step: 5}
	wins := feedCount(w, 4)
	if len(wins) != 0 {
		t.Fatalf("no full window expected")
	}
	if rest := w.Flush(); len(rest) != 4 {
		t.Errorf("flush = %d items", len(rest))
	}
}

// applyDelta replays a WindowDelta onto a multiset of triples and reports
// whether the result matches the emitted window.
func applyDelta(t *testing.T, cur map[rdf.Triple]int, wd WindowDelta) {
	t.Helper()
	for _, tr := range wd.Retracted {
		cur[tr]--
		if cur[tr] < 0 {
			t.Fatalf("retracted triple %v not present", tr)
		}
		if cur[tr] == 0 {
			delete(cur, tr)
		}
	}
	for _, tr := range wd.Added {
		cur[tr]++
	}
	want := map[rdf.Triple]int{}
	for _, tr := range wd.Window {
		want[tr]++
	}
	if len(cur) != len(want) {
		t.Fatalf("delta-maintained window has %d distinct triples, emitted %d", len(cur), len(want))
	}
	for tr, n := range want {
		if cur[tr] != n {
			t.Fatalf("triple %v: delta count %d, window count %d", tr, cur[tr], n)
		}
	}
}

// Property: replaying the reported deltas reconstructs every emitted window
// exactly, for all Step/Size combinations.
func TestSlidingCountWindowDeltas(t *testing.T) {
	for size := 1; size <= 6; size++ {
		for step := 1; step <= size; step++ {
			w := &SlidingCountWindow{Size: size, Step: step}
			cur := map[rdf.Triple]int{}
			emitted := 0
			for i := 0; i < 40; i++ {
				// Repeating subjects exercise multiset deltas.
				it := Item{Triple: rdf.Triple{S: fmt.Sprintf("s%d", i%7), P: "p", O: "o"}}
				wd := w.AddDelta(it)
				if wd == nil {
					continue
				}
				emitted++
				if emitted == 1 {
					if wd.Incremental {
						t.Fatal("first emission must not be incremental")
					}
				} else {
					if !wd.Incremental {
						t.Fatalf("size=%d step=%d: emission %d not incremental", size, step, emitted)
					}
					if len(wd.Added) != step || len(wd.Retracted) != step {
						t.Fatalf("size=%d step=%d: |added|=%d |retracted|=%d, want %d",
							size, step, len(wd.Added), len(wd.Retracted), step)
					}
				}
				applyDelta(t, cur, *wd)
			}
			if emitted == 0 && size <= 40 {
				t.Fatalf("size=%d step=%d: no emissions", size, step)
			}
		}
	}
}

// Flush contract: the tail items no emission ever covered — the whole
// partial buffer when nothing was emitted, nil when the last emission
// covered everything.
func TestSlidingCountWindowFlushContract(t *testing.T) {
	cases := []struct {
		name       string
		size, step int
		items      int
		wantFlush  int
	}{
		{"never-emitted partial", 10, 5, 4, 4},
		{"exact emission boundary", 4, 2, 8, 0},
		{"uncovered tail", 4, 2, 9, 1},
		{"step one", 3, 1, 5, 0},        // emits every item once full
		{"step one warmup", 3, 1, 2, 2}, // never full
		{"tumbling step=size", 3, 3, 7, 1},
		{"size one", 1, 1, 5, 0},
		{"empty", 4, 2, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := &SlidingCountWindow{Size: tc.size, Step: tc.step}
			feedCount(w, tc.items)
			got := w.Flush()
			if len(got) != tc.wantFlush {
				t.Fatalf("flush = %d items, want %d", len(got), tc.wantFlush)
			}
			// Flush resets: the windower is reusable afterwards.
			if w.seen != 0 || w.prev != nil || len(w.buf) != 0 {
				t.Fatal("flush must reset the window state")
			}
		})
	}
}

// Property: sliding count windows always contain the most recent Size items
// in arrival order.
func TestQuickSlidingCountRecency(t *testing.T) {
	f := func(seed int64, szRaw, stepRaw uint8) bool {
		size := int(szRaw%8) + 2
		step := int(stepRaw%uint8(size)) + 1
		w := &SlidingCountWindow{Size: size, Step: step}
		count := 0
		ok := true
		for i := 0; i < 40; i++ {
			it := Item{Triple: rdf.Triple{S: fmt.Sprintf("s%d", i), P: "p", O: "o"}}
			count++
			if win := w.Add(it); win != nil {
				if len(win) != size {
					return false
				}
				for j, tr := range win {
					want := fmt.Sprintf("s%d", count-size+j)
					if tr.S != want {
						ok = false
					}
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
