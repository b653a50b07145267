# Convenience targets — everything here also runs through plain go commands.

.PHONY: test race chaos chaos-smoke

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
