# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet lint lint-strict test test-short race claims fmt-check ci bench bench-e2e ab repro cover fuzz examples chaos smoke load overload obs-demo clean

all: build vet lint test

build:
	go build ./...

# The second line is compile-only on a 32-bit int: session keys and swarm
# flows are uint32s, and arithmetic on them that only fits a 64-bit int has
# been a bug here before (a comparator that subtracted flows); the pacing
# bucket's fixed-point price and the wheel's slot arithmetic are 64-bit
# integer code on the same path.
vet:
	go vet ./...
	GOARCH=386 go vet ./internal/session/ ./internal/wire/ ./internal/timewheel/ ./internal/pels/

# PELS-specific static analyzers (determinism, seeded randomness, float
# equality, unit hygiene, lock discipline, zero-alloc contracts, goroutine
# lifecycles). Any diagnostic fails the build; intentional exceptions carry
# //pelsvet:allow comments in the source.
lint:
	go run ./cmd/pelsvet ./...

# The CI lint-strict step: same analyzers, but the findings are captured as
# a machine-readable artifact (same exit semantics — any finding fails).
# Capture-then-cat instead of tee: /bin/sh may be dash, which has no pipefail.
lint-strict:
	@go run ./cmd/pelsvet -json ./... > /tmp/pelsvet.json; st=$$?; \
		cat /tmp/pelsvet.json; exit $$st

test:
	go test ./...

test-short:
	go test -short ./...

# Race-enabled short tests — the PR gate in .github/workflows/ci.yml. The
# second line repeats the wire tests that have been timing-sensitive (the
# shaped link's counters, the swarm's hello driver), the receiver core's
# tests beside the swarm's, and every link test — who owns a link buffer,
# the free lists' bound, the one-goroutine loop against its reference — so
# a flake cannot return unnoticed; the third repeats
# the tests of who holds a session's timer (admission lane, wheel, chunk),
# where every bug so far was a race, and of the pump against feedback (the
# bucket has only the session's lock).
race:
	go test -race -short ./...
	go test -race -count=20 -run 'TestShapedConn|TestSwarm|TestLink|TestReceiver' ./internal/wire/
	go test -race -count=5 -run 'TestAdmit|TestHandOff|TestOverload|TestStaleTimer|TestPump' ./internal/session/

# Every row of the paper's claims table, the seed-3 pins of every simulator
# entry, the chaos fingerprint and the fig-7 metric pins, which race's
# -short run skips (the CI checks job).
claims:
	go test -count=1 -run '^(TestPaperClaims|TestSimulatorRegistryOutputsPinned|TestChaosFingerprintPinnedAcrossLayerRefactor|TestFigure7MetricsPinnedAcrossLayerRefactor)$$' ./internal/experiments/

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:"; echo "$$out"; exit 1; fi

# The exact CI gate, runnable locally before pushing. Performance is gated
# end to end by bench-e2e (bench/); the zero-allocation contracts of the hot
# paths are testing.AllocsPerRun tests that race already runs.
ci: build vet fmt-check lint claims race bench-e2e

# Regenerate every table and figure of the paper (plus extensions).
repro:
	go run ./cmd/pelsbench

bench:
	go test -bench=. -benchmem ./...

# The end-to-end benchmark is a module of its own (bench/go.mod), so
# `go build ./...` and `go test ./...` never compile it. This vets and
# race-tests it against the tree and runs one second of the driver's own
# command on four live workloads and on a simulator one, so a session/wire
# or experiments/sim API change that breaks it fails here (the CI
# load-smoke job) and not in the driver. egress-bulk is the one with
# several datagrams a wake; churn-mem runs swarm, admission and close end
# to end; loop-mem is the only gate that runs Gateway + ShapedConn and the
# feedback loop through them.
bench-e2e:
	go -C bench vet ./...
	go -C bench test -short -race ./...
	bash bench/run.sh --workload egress-wide --seed 1 --seconds 1 --trace 0
	bash bench/run.sh --workload egress-bulk --seed 1 --seconds 1 --trace 0
	bash bench/run.sh --workload churn-mem --seed 1 --seconds 1 --trace 0
	bash bench/run.sh --workload loop-mem --seed 1 --seconds 1 --trace 0
	bash bench/run.sh --workload sim-figures --seed 1 --seconds 1 --trace 0

# The paired A/B behind a performance claim (bench/README.md "Landing a
# performance claim"): this checkout against PARENT on one workload and seed,
# ten alternating pairs, printed as the CHANGES.md table.
#   make ab PARENT=HEAD~1 WORKLOAD=churn-mem SEED=3 [PAIRS=10]
ab:
	bash scripts/ab.sh $(PARENT) $(WORKLOAD) $(SEED) $(PAIRS)

cover:
	go test -cover ./internal/...

fuzz:
	go test -run '^$$' -fuzz '^FuzzDecoder$$' -fuzztime=10s ./internal/fgs/
	go test -run '^$$' -fuzz '^FuzzPlanLayers$$' -fuzztime=10s ./internal/fgs/
	go test -run '^$$' -fuzz '^FuzzPacketizer$$' -fuzztime=10s ./internal/fgs/
	go test -run '^$$' -fuzz '^FuzzGamma$$' -fuzztime=10s ./internal/fgs/
	go test -run '^$$' -fuzz '^FuzzSender$$' -fuzztime=10s ./internal/fgs/
	go test -run '^$$' -fuzz '^FuzzDecodeDatagram$$' -fuzztime=10s ./internal/wire/
	go test -run '^$$' -fuzz '^FuzzHeaderRoundTrip$$' -fuzztime=10s ./internal/wire/
	go test -run '^$$' -fuzz '^FuzzAppendReuse$$' -fuzztime=10s ./internal/wire/
	go test -run '^$$' -fuzz '^FuzzCorruption$$' -fuzztime=10s ./internal/wire/
	go test -run '^$$' -fuzz '^FuzzStampFeedback$$' -fuzztime=10s ./internal/wire/
	go test -run '^$$' -fuzz '^FuzzBucket$$' -fuzztime=10s ./internal/wire/
	go test -run '^$$' -fuzz '^FuzzMeter$$' -fuzztime=10s ./internal/packet/
	go test -run '^$$' -fuzz '^FuzzSwarmHandle$$' -fuzztime=10s ./internal/wire/
	go test -run '^$$' -fuzz '^FuzzReceiverHandle$$' -fuzztime=10s ./internal/wire/
	go test -run '^$$' -fuzz '^FuzzServerDatagram$$' -fuzztime=10s ./internal/session/
	go test -run '^$$' -fuzz '^FuzzTimeSeries$$' -fuzztime=10s ./internal/stats/

# Every example, run to completion (the CI test-race job). They read the
# experiments API as a user would, so a change that leaves one panicking —
# a series read without the recording opt-in it needs — fails here.
examples:
	for d in examples/*/; do echo "== $$d"; go run "./$$d" || exit 1; done

# Chaos lane: deterministic fault-schedule experiments plus a live
# stream through a flapping emulated link (the CI chaos-smoke job).
chaos:
	go test -race -short -run 'TestChaos' ./internal/experiments/
	go run ./cmd/pelsbench -only chaos-testbed,chaos-wire

# Live UDP loopback: stream pelsd -> pelsget on 127.0.0.1 and assert the
# base layer survived untouched (the CI wire-smoke job).
smoke:
	go build -o /tmp/pelsd ./cmd/pelsd
	go build -o /tmp/pelsget ./cmd/pelsget
	/tmp/pelsd -addr 127.0.0.1:9000 -frames 200 -duration 30s & \
	sleep 1; /tmp/pelsget -addr 127.0.0.1:9000 -duration 20s -max-green-loss 0; \
	wait

# Multi-session load smoke: one pelsd, 500 pelsload receivers sharing the
# loopback bottleneck (the CI load-smoke job). The frame geometry keeps the
# green base layer a small slice of each frame so the structural MKC
# overload (p = α/(β·r) at equilibrium) lands entirely on droppable
# enhancement packets — the gate is zero green loss across all 500
# sessions, everyone streaming, no cross-session bleed.
load:
	go build -o /tmp/pelsd ./cmd/pelsd
	go build -o /tmp/pelsload ./cmd/pelsload
	( /tmp/pelsd -addr 127.0.0.1:9100 -debug 127.0.0.1:9101 \
		-capacity 30mbps -queue 60000 -epoch 50ms \
		-frame-interval 60ms -green 1 -alpha 2kbps -initial-rate 100kbps \
		-frames 0 -duration 25s & ); \
	sleep 1; /tmp/pelsload -addr 127.0.0.1:9100 -sessions 500 \
		-duration 12s -ramp 2s \
		-scrape http://127.0.0.1:9101 -shards-out /tmp/pels-shards.json \
		-max-green-loss 0 -min-streams 500 -assert-isolation

# Overload drills (the CI overload-smoke job). Drill A: a flash crowd of
# 2x MaxSessions against a server whose overload controller is armed well
# below demand — the server must visibly push back (Rejects), shed
# enhancement layers instead of dropping green, and still stream every
# receiver to completion as the crowd drains through retry-after backoff.
# Drill B: half the swarm goes dark mid-run and reconnects in one wave;
# the idle reaper (idle-timeout < storm-resume) must free the dark
# sessions so the wave resumes with fresh sequence spaces — zero green
# loss end to end in both drills.
overload:
	go build -o /tmp/pelsd ./cmd/pelsd
	go build -o /tmp/pelsload ./cmd/pelsload
	( /tmp/pelsd -addr 127.0.0.1:9200 -capacity 4mbps -queue 24000 -epoch 10ms \
		-packet 200 -frame-packets 40 -green 2 -frame-interval 20ms \
		-alpha 50kbps -initial-rate 300kbps -frames 120 -serve \
		-max-sessions 6 -overload-capacity 2mbps -reject-retry-after 300ms \
		-idle-timeout 5s -duration 14s & ); \
	sleep 1; /tmp/pelsload -addr 127.0.0.1:9200 -sessions 12 -sockets 4 \
		-duration 12s -ramp 500ms -hello-retry 150ms -reconnect \
		-min-streams 12 -min-rejects 1 -max-green-loss 0 -assert-isolation
	( /tmp/pelsd -addr 127.0.0.1:9201 -capacity 4mbps -queue 24000 -epoch 10ms \
		-packet 200 -frame-packets 40 -green 2 -frame-interval 20ms \
		-alpha 50kbps -initial-rate 300kbps -frames 0 -serve \
		-max-sessions 16 -idle-timeout 1s -stuck-timeout 3s -duration 13s & ); \
	sleep 1; /tmp/pelsload -addr 127.0.0.1:9201 -sessions 8 -sockets 4 \
		-duration 11s -ramp 500ms -hello-retry 150ms -reconnect \
		-storm-at 3s -storm-frac 0.5 -storm-resume 2s \
		-min-streams 8 -min-resumes 4 -max-green-loss 0 -assert-isolation

# Observability demo: run one experiment, export every recorded series
# (rate, loss, gamma, per-color drops) through internal/obs, and plot
# the gamma trace in the terminal.
obs-demo:
	go run ./cmd/pelsbench -only fig7 -csv /tmp/pels-obs -json /tmp/pels-obs/results.json
	go run ./cmd/pelsplot -cols gamma_f0 /tmp/pels-obs/fig7_obs.csv

clean:
	go clean ./...
