# Convenience targets — everything here also runs through plain go commands.

.PHONY: test race chaos chaos-smoke bench6 bench7

test:
	go build ./... && go test ./...

race:
	go test -race ./internal/transport ./internal/reasoner

# chaos runs the deterministic fault-injection differential (8 schedules x
# 3 program classes x pipeline depths) plus the serve-layer tenant variant,
# all under the race detector.
chaos:
	go test -race ./internal/reasoner -run Chaos -count=1 -v && go test -race ./internal/serve -run Chaos -count=1 -v

# chaos-smoke spins randomized fault schedules for CHAOS_SMOKE_TIME (the
# seed is logged; replay a failure with CHAOS_SEED=<n>).
CHAOS_SMOKE_TIME ?= 30s
chaos-smoke:
	CHAOS_SMOKE_TIME=$(CHAOS_SMOKE_TIME) go test ./internal/reasoner -run ChaosRandomizedSchedule -count=1 -v

# bench6 snapshots the wire-path perf trajectory (critical-path ms, request/
# response bytes per window, rounds, pipeline depth) for Fig7 and Fig7Residual
# across R, PR_Dep, serial DPR, and pipelined DPR into BENCH_6.json.
BENCH6_OUT ?= $(CURDIR)/BENCH_6.json
bench6:
	BENCH6_OUT=$(BENCH6_OUT) go test ./internal/bench -run TestWireBenchArtifact -count=1 -v

# bench7 snapshots the static-vs-adaptive partitioning curve under the
# skewed+bursty workload (modeled critical-path ms, rebalancer decision
# counters, elastic join/leave) across fleet sizes into BENCH_7.json.
BENCH7_OUT ?= $(CURDIR)/BENCH_7.json
bench7:
	BENCH7_OUT=$(BENCH7_OUT) go test ./internal/bench -run TestSkewBenchArtifact -count=1 -v
