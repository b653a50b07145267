package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"streamrule"
)

// digest is a canonical hash of one window's answers: every answer set as its
// sorted atom keys, the sets themselves sorted, so that engines which
// enumerate models in different orders agree.
func digest(answers []*streamrule.AnswerSet) string {
	sets := make([]string, len(answers))
	for i, a := range answers {
		sets[i] = strings.Join(a.Keys(), "\x00")
	}
	sort.Strings(sets)
	h := sha256.New()
	for _, s := range sets {
		h.Write([]byte(s))
		h.Write([]byte{1})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// combineDigests folds per-window digests, in window order, into the
// workload's answers_digest.
func combineDigests(perWindow []string) string {
	sum := sha256.Sum256([]byte(strings.Join(perWindow, ",")))
	return hex.EncodeToString(sum[:8])
}

// sample is one window kept for the oracle, checked after the timed phase.
type sample struct {
	seq     int
	window  []streamrule.Triple
	answers []*streamrule.AnswerSet
	digest  string
}

// oracleEvery is the sampling stride; maxSamples bounds what a run retains.
const (
	oracleEvery = 10
	maxSamples  = 32
)

// oracleReport is the outcome of checking a run's samples against the
// reference computation.
type oracleReport struct {
	checked    int
	mismatches []string
	refMS      []float64 // wall time of the reference reasoner per sample
}

// checkSamples recomputes every sampled window with the workload's reference
// reasoner and compares answers.
func checkSamples(w *spec, samples []sample) (*oracleReport, error) {
	p, err := streamrule.LoadProgram(w.program, inpre)
	if err != nil {
		return nil, err
	}
	var ref streamrule.Reasoner
	switch w.oracle {
	case oracleScratchR:
		ref, err = streamrule.NewEngine(p)
	case oracleNaive:
		ref, err = streamrule.NewEngine(p, streamrule.WithNaivePropagation())
	case oracleLocalPR:
		ref, err = streamrule.NewParallelEngine(p)
	default:
		err = fmt.Errorf("workload %s has no window oracle", w.name)
	}
	if err != nil {
		return nil, err
	}
	rep := &oracleReport{}
	for _, s := range samples {
		t0 := time.Now()
		out, err := ref.Reason(s.window)
		if err != nil {
			return nil, fmt.Errorf("oracle window %d: %w", s.seq, err)
		}
		rep.refMS = append(rep.refMS, ms(time.Since(t0)))
		rep.checked++
		switch {
		case digest(out.Answers) != s.digest:
			rep.mismatches = append(rep.mismatches, fmt.Sprintf("window %d: answers differ from the reference", s.seq))
		case streamrule.Accuracy(s.answers, out.Answers) != 1.0:
			rep.mismatches = append(rep.mismatches, fmt.Sprintf("window %d: accuracy below 1", s.seq))
		case w.models > 0 && len(s.answers) != w.models:
			rep.mismatches = append(rep.mismatches, fmt.Sprintf("window %d: %d answer sets, want %d", s.seq, len(s.answers), w.models))
		}
	}
	return rep, nil
}
