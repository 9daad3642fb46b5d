# Tier-1 verification plus the race detector, the pooldebug build and the
# determinism linter: the fleet orchestrator and the engine's lanes are
# concurrent, so -race is load-bearing, and every experiment's
# byte-reproducibility claim rests on the two-run determinism tests, the
# goldens and tspu-vet together (see internal/lint).

GO ?= go

.PHONY: all check vet perfbench-check lint pooldebug escapes escapes-update build test race race-focus race-lanes conformance cover bench bench-all bench-update bench-throughput bench-throughput-update fleet-smoke fuzz-smoke crosscensor armsrace

# Benchmarks gated by the regression harness (hot-path device benches, fleet
# orchestration, and the ablations). BENCH_COUNT samples each; perfstat takes
# min ns/op and max allocs across samples.
BENCH_PATTERN = ^(BenchmarkDevice_|BenchmarkFleet_MultiSeedTable1$$|BenchmarkAblation_SNIMatch$$)
BENCH_COUNT ?= 3
BENCH_TIME ?= 0.2s

# Engine throughput benchmarks gated against BENCH_engine.json. Only the
# Workers:1 variants are gated — they are deterministic and zero-alloc on any
# machine; BenchmarkEngine_WorkerFanout's parallel speedup is a property of
# the host's core count and stays out of any committed baseline.
ENGINE_BENCH_PATTERN = ^(BenchmarkEngine_Passthrough$$|BenchmarkEngine_TLSMix$$|BenchmarkEngine_Chain2$$)

all: check

check: vet perfbench-check lint escapes build test pooldebug conformance race race-lanes crosscensor armsrace fleet-smoke

# vet also fails on any Go file outside testdata/ that gofmt would change.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.bench_build/*')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists files needing gofmt:"; echo "$$unformatted"; exit 1; fi

# perfbench-check vets and tests the benchmark module. perfbench/ has its own
# go.mod, so the root ./... patterns skip it, and an internal API change could
# otherwise break `bash perfbench/run.sh` with every other target green.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# tspu-vet holds the static half of the determinism contract: no wall-clock
# read (walltime) and no ambient randomness (globalrand) in simulation code,
# and switches over //tspuvet:closedenum types stay exhaustive (statecheck).
# These are what no run of the program shows: a wall-clock budget that never
# expires on the test machine, random bytes no output renders, an enum
# member no test knows about. The rest of the contract is held by checks
# that run the program: the two-run determinism tests and goldens (test,
# fleet-smoke), packet retention (pooldebug) and lane isolation
# (race-lanes). The analysis is whole-program: packages are checked in
# dependency order with facts (purity taint, enum membership) threaded
# across package boundaries. tspu-vet runs one way — all four analyzers over
# the non-test files, whole-program — so this is the only analyzer target.
# Exceptions need a reasoned //tspuvet:allow directive, and unused
# directives fail the build. The zero-allocation contract is the escapes
# target's and the alloc tests', not an analyzer's.
lint:
	$(GO) build -o /tmp/tspu-vet ./cmd/tspu-vet
	/tmp/tspu-vet ./...

# pooldebug reruns every test, golden and the conformance suite with the
# pool and retention checks on: released conntrack entries and sim events
# are poisoned, so use-after-release and double release panic instead of
# silently reading reused memory, and netem hands each hop a fresh copy of a
# packet and scribbles the original (and every packet a link drops), so a
# middlebox, capture or endpoint that kept a packet past its hop reads
# garbage and a golden or check changes. The normal build compiles the hooks
# to nothing. It is the only pool-lifecycle and retention guard, so check
# runs it.
pooldebug:
	$(GO) test -tags=pooldebug -count=1 ./...

# escapes is the static half of the per-packet zero-allocation contract (the
# AllocsPerRun tests are the runtime half): diff the compiler's
# escape-analysis diagnostics for the six packet-path packages against the
# committed ESCAPES_baseline.json. Any new or grown heap escape fails, and
# so does a baseline entry no longer produced at its recorded count;
# escapes-update records a reviewed change (commit the diff).
escapes:
	$(GO) build -o /tmp/tspu-vet ./cmd/tspu-vet
	/tmp/tspu-vet -escapes

escapes-update:
	$(GO) build -o /tmp/tspu-vet ./cmd/tspu-vet
	/tmp/tspu-vet -escapes -update

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-focus runs the fleet worker pool and the conformance suite that
# drives it (the module's concurrent orchestration: the only go statements
# outside the engine's lane fan-out) under the race detector with live
# (uncached) runs.
race-focus:
	$(GO) test -race -count=1 ./internal/fleet/... ./internal/conformance/...

# race-lanes is the runtime check of lane isolation: the engine's worker
# fan-out (Workers forced past 1, including TestEngineLaneBranchesRace, which
# drives the throttle, IP-block rewrite, ICMP, sweep, bounded-table and
# reassembly branches) and the sharded device driven one goroutine per lane,
# under the race detector. A lane that reads a sibling shard or bumps a
# shared word shows up here as a data race. Every lane matches SNIs against
# one shared Policy (TestShardLanesShareOnePolicy), so a lookup that writes
# the policy is a race too.
race-lanes:
	$(GO) test -race -count=1 -run 'Engine|Shard' ./internal/engine ./internal/tspu

# Model-based conformance: 1,000 seeded scenarios replayed through the
# device and the paper-derived oracle (zero divergences required), golden
# trace replays, shrunk-regression replays, and timeout fault re-injection.
# -count=1 defeats the test cache so the differential run is always live.
conformance:
	$(GO) test -count=1 ./internal/conformance

# Coverage gate for the packages that encode the paper's behavioral claims.
# Baselines are the growth seed's numbers (tspu 89.3%, measure 91.5%) less
# half a point of slack, because statement counting jitters a few tenths
# between runs; a drop below the gate means a tested behavior was removed.
cover:
	$(GO) test -count=1 -coverprofile=/tmp/cover-tspu.out ./internal/tspu
	$(GO) test -count=1 -coverprofile=/tmp/cover-measure.out ./internal/measure
	$(GO) tool cover -func=/tmp/cover-tspu.out | awk '/^total:/ { sub(/%/,"",$$3); if ($$3+0 < 88.8) { printf "internal/tspu coverage %s%% fell below the 88.8%% gate (seed 89.3%%)\n", $$3; exit 1 }; printf "internal/tspu coverage %s%% (gate 88.8%%, seed 89.3%%)\n", $$3 }'
	$(GO) tool cover -func=/tmp/cover-measure.out | awk '/^total:/ { sub(/%/,"",$$3); if ($$3+0 < 91.0) { printf "internal/measure coverage %s%% fell below the 91.0%% gate (seed 91.5%%)\n", $$3; exit 1 }; printf "internal/measure coverage %s%% (gate 91.0%%, seed 91.5%%)\n", $$3 }'

# bench is the regression harness: run the gated benchmarks with -benchmem,
# parse and compare against the committed baseline via tspu-bench. Fails on
# >25% ns/op growth or ANY allocs/op or B/op increase. bench-update refreshes
# the baseline after an intentional perf change (commit the diff).
bench:
	$(GO) build -o /tmp/tspu-bench ./cmd/tspu-bench
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -count $(BENCH_COUNT) -benchtime $(BENCH_TIME) . | tee /tmp/bench-out.txt
	/tmp/tspu-bench -in /tmp/bench-out.txt -baseline BENCH_device.json -threshold 0.25

bench-update:
	$(GO) build -o /tmp/tspu-bench ./cmd/tspu-bench
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -count $(BENCH_COUNT) -benchtime $(BENCH_TIME) . | tee /tmp/bench-out.txt
	/tmp/tspu-bench -in /tmp/bench-out.txt -baseline BENCH_device.json -update -note "make bench-update; compare with threshold 0.25"

# bench-throughput is the engine's packets/sec regression gate: the batch
# pipeline must sustain its committed aggregate pps (max across samples,
# >25% drop fails) at exactly 0 allocs/op per batch.
bench-throughput:
	$(GO) build -o /tmp/tspu-bench ./cmd/tspu-bench
	$(GO) test -run '^$$' -bench '$(ENGINE_BENCH_PATTERN)' -benchmem -count $(BENCH_COUNT) -benchtime $(BENCH_TIME) ./internal/engine | tee /tmp/bench-engine.txt
	/tmp/tspu-bench -in /tmp/bench-engine.txt -baseline BENCH_engine.json -threshold 0.25

bench-throughput-update:
	$(GO) build -o /tmp/tspu-bench ./cmd/tspu-bench
	$(GO) test -run '^$$' -bench '$(ENGINE_BENCH_PATTERN)' -benchmem -count $(BENCH_COUNT) -benchtime $(BENCH_TIME) ./internal/engine | tee /tmp/bench-engine.txt
	/tmp/tspu-bench -in /tmp/bench-engine.txt -baseline BENCH_engine.json -update -note "make bench-throughput-update; compare with threshold 0.25"

# bench-all runs the full unguarded suite (every table/figure regeneration
# bench) for manual inspection.
bench-all:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# A fast end-to-end determinism check: the aggregate report must be
# byte-identical for any -workers value, and — now that per-experiment
# timing lives on stderr instead of inside the artifact — the sequential
# path must be byte-identical across two independent runs too.
fleet-smoke:
	$(GO) build -o /tmp/tspu-lab ./cmd/tspu-lab
	/tmp/tspu-lab -exp table2,fig12,fig9,table3 -seeds 3 -workers 1 -endpoints 200 -ases 12 -echo 50 -tranco 200 -registry 200 > /tmp/fleet-w1.txt
	/tmp/tspu-lab -exp table2,fig12,fig9,table3 -seeds 3 -workers 8 -endpoints 200 -ases 12 -echo 50 -tranco 200 -registry 200 > /tmp/fleet-w8.txt
	diff /tmp/fleet-w1.txt /tmp/fleet-w8.txt && echo "fleet deterministic"
	/tmp/tspu-lab -exp table2,fig12 -endpoints 200 -ases 12 -echo 50 -tranco 200 -registry 200 2>/dev/null > /tmp/seq-a.txt
	/tmp/tspu-lab -exp table2,fig12 -endpoints 200 -ases 12 -echo 50 -tranco 200 -registry 200 2>/dev/null > /tmp/seq-b.txt
	diff /tmp/seq-a.txt /tmp/seq-b.txt && echo "sequential output byte-identical"

# crosscensor is the multi-censor comparative smoke: run the identical probe
# battery against every censor model (TSPU, pre-2019 ISP DPI, Turkmenistan,
# three Indian ISPs) and require the fingerprint matrix to be byte-identical
# across worker counts, match the committed golden, and keep every censor
# pair distinguishable (>= 3 pinned differing cells per pair).
crosscensor:
	$(GO) build -o /tmp/tspu-lab ./cmd/tspu-lab
	/tmp/tspu-lab -exp crosscensor -seeds 2 -workers 1 -endpoints 20 -ases 2 -echo 5 -tranco 50 -registry 50 > /tmp/crosscensor-w1.txt
	/tmp/tspu-lab -exp crosscensor -seeds 2 -workers 4 -endpoints 20 -ases 2 -echo 5 -tranco 50 -registry 50 > /tmp/crosscensor-w4.txt
	diff /tmp/crosscensor-w1.txt /tmp/crosscensor-w4.txt && echo "crosscensor matrix worker-independent"
	$(GO) test -count=1 -run 'TestCrossCensor' . ./internal/measure

# armsrace is the arms-race conformance smoke: the evasion-search-vs-
# counter-evolving-censor ledger must be byte-identical across worker counts
# through the experiment surface, match the committed golden, and every
# golden trace under testdata/evasions/ must replay byte-identically from
# nothing but its own header. The traces replay circumvent.Trial, so the
# trial's and the search's own tests run here too.
armsrace:
	$(GO) build -o /tmp/tspu-lab ./cmd/tspu-lab
	/tmp/tspu-lab -exp armsrace -seeds 2 -workers 1 -endpoints 20 -ases 2 -echo 5 -tranco 50 -registry 50 > /tmp/armsrace-w1.txt
	/tmp/tspu-lab -exp armsrace -seeds 2 -workers 4 -endpoints 20 -ases 2 -echo 5 -tranco 50 -registry 50 > /tmp/armsrace-w4.txt
	diff /tmp/armsrace-w1.txt /tmp/armsrace-w4.txt && echo "armsrace ledger worker-independent"
	$(GO) test -count=1 -run 'TestArmsRace|TestEvasionCorpus' .
	$(GO) test -count=1 ./internal/armsrace ./internal/circumvent ./internal/evolve

# Native fuzzing over the wire parsers that face attacker-controlled bytes
# (IP/TCP, ClientHello, HTTP response). FuzzChecksum pins the word-wise
# Internet checksum to the 16-bit RFC 1071 reference; FuzzGenome guards the
# evasion-corpus serialization contract (circumvent.Decode/String
# round-trip); FuzzPolicyMatch holds the domain matcher to its contract
# (an added name matches itself and its subdomains, removal clears it);
# FuzzReassembler holds the shared fragment reassembler to one-shot
# packet.Reassemble over permuted fragment orders and queue limits;
# FuzzFlowIndex holds the conntrack's open-addressed flow index to a Go map
# over put/get/delete sequences on a small key pool with colliding tags;
# FuzzTraceParse holds the conformance trace format to never panicking and
# to Parse inverting Marshal on generated scenarios.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/packet
	$(GO) test -run '^$$' -fuzz '^FuzzChecksum$$' -fuzztime 10s ./internal/packet
	$(GO) test -run '^$$' -fuzz '^FuzzReassembler$$' -fuzztime 10s ./internal/packet
	$(GO) test -run '^$$' -fuzz '^FuzzParseClientHello$$' -fuzztime 10s ./internal/tlsx
	$(GO) test -run '^$$' -fuzz '^FuzzParseResponse$$' -fuzztime 10s ./internal/httpx
	$(GO) test -run '^$$' -fuzz '^FuzzGenome$$' -fuzztime 10s ./internal/circumvent
	$(GO) test -run '^$$' -fuzz '^FuzzPolicyMatch$$' -fuzztime 10s ./internal/tspu
	$(GO) test -run '^$$' -fuzz '^FuzzFlowIndex$$' -fuzztime 10s ./internal/tspu
	$(GO) test -run '^$$' -fuzz '^FuzzTraceParse$$' -fuzztime 10s ./internal/conformance
