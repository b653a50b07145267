package stream

import (
	"context"
	"fmt"
	"testing"
	"time"

	"streamrule/internal/rdf"
)

func triples(n int) []rdf.Triple {
	out := make([]rdf.Triple, n)
	for i := range out {
		out[i] = rdf.Triple{S: fmt.Sprintf("s%d", i), P: "p", O: "o"}
	}
	return out
}

func TestCountWindow(t *testing.T) {
	w := &CountWindow{Size: 3}
	var windows [][]rdf.Triple
	for _, tr := range triples(7) {
		if win := w.Add(Item{Triple: tr}); win != nil {
			windows = append(windows, win)
		}
	}
	if len(windows) != 2 {
		t.Fatalf("got %d full windows", len(windows))
	}
	for _, win := range windows {
		if len(win) != 3 {
			t.Errorf("window size = %d", len(win))
		}
	}
	rest := w.Flush()
	if len(rest) != 1 || rest[0].S != "s6" {
		t.Errorf("flush = %v", rest)
	}
	if w.Flush() != nil {
		t.Error("second flush should be empty")
	}
}

func TestSliceSource(t *testing.T) {
	src := &SliceSource{Triples: triples(5)}
	out := make(chan Item, 16)
	if err := src.Run(context.Background(), out); err != nil {
		t.Fatal(err)
	}
	var got []Item
	for it := range out {
		got = append(got, it)
	}
	if len(got) != 5 {
		t.Fatalf("got %d items", len(got))
	}
	for i, it := range got {
		if want := fmt.Sprintf("s%d", i); it.Triple.S != want {
			t.Errorf("item %d = %v, want subject %s", i, it.Triple, want)
		}
	}
}

func TestSliceSourceCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := &SliceSource{Triples: triples(1000)}
	out := make(chan Item) // unbuffered: forces the select
	done := make(chan error)
	go func() { done <- src.Run(ctx, out) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("source did not stop on cancellation")
	}
}

func TestPredicateFilter(t *testing.T) {
	f := PredicateFilter([]string{"keep"})
	if _, ok := f(rdf.Triple{P: "keep"}); !ok {
		t.Error("keep predicate filtered out")
	}
	if _, ok := f(rdf.Triple{P: "drop"}); ok {
		t.Error("drop predicate passed")
	}
}

func TestWindowsPipeline(t *testing.T) {
	var in []rdf.Triple
	for i := 0; i < 10; i++ {
		in = append(in, rdf.Triple{S: fmt.Sprintf("s%d", i), P: "keep", O: "o"})
		in = append(in, rdf.Triple{S: fmt.Sprintf("n%d", i), P: "noise", O: "o"})
	}
	src := &SliceSource{Triples: in}
	var windows [][]rdf.Triple
	err := WindowsDelta(context.Background(), src, PredicateFilter([]string{"keep"}),
		&CountWindow{Size: 4}, func(wd WindowDelta) error {
			windows = append(windows, wd.Window)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// 10 kept items -> 2 full windows of 4 + flush of 2.
	if len(windows) != 3 {
		t.Fatalf("got %d windows", len(windows))
	}
	if len(windows[2]) != 2 {
		t.Errorf("final partial window size = %d", len(windows[2]))
	}
	for _, w := range windows {
		for _, tr := range w {
			if tr.P != "keep" {
				t.Errorf("noise triple leaked: %v", tr)
			}
		}
	}
}

func TestWindowsHandlerError(t *testing.T) {
	src := &SliceSource{Triples: triples(100)}
	wantErr := fmt.Errorf("boom")
	calls := 0
	err := WindowsDelta(context.Background(), src, nil, &CountWindow{Size: 10},
		func(WindowDelta) error {
			calls++
			return wantErr
		})
	if err != wantErr {
		t.Errorf("err = %v, want %v", err, wantErr)
	}
	if calls != 1 {
		t.Errorf("handler called %d times, want 1", calls)
	}
}
