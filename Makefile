# Tier-1 gate and developer shortcuts. `make verify` is the one
# command CI and sessions run before shipping.

GO ?= go

.PHONY: verify vet build test procs no-legacy-rollback no-ablation-forks allocs-gate flight-gate benchmark-check race paxos-stress

verify: vet build test procs no-legacy-rollback no-ablation-forks allocs-gate flight-gate benchmark-check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Batch sealing is event-driven (a proxy or coordinator seals when its
# endpoints run dry) and the engines are parallel, so what these
# packages do depends on how goroutines are scheduled: run them at 1, 2
# and 4 Ps, so a failure that needs one degree of parallelism cannot
# hide behind the host's.
procs:
	@for p in 1 2 4; do \
		echo "GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p $(GO) test -count=1 ./internal/paxos ./internal/proxy ./internal/optimistic ./internal/sched || exit 1; \
	done

# The undo-record/clone-replay rollback model is gone: non-test code
# must not reference the deleted command.Undoable/command.Cloneable
# interfaces (speculation rolls back through versioned stores —
# internal/mvstore — since the multi-version refactor).
no-legacy-rollback:
	@if git ls-files '*.go' | grep -v '_test\.go$$' | xargs grep -n 'command\.\(Undoable\|Cloneable\)' 2>/dev/null; then \
		echo "verify: non-test code references the deleted command.Undoable/Cloneable rollback model"; \
		exit 1; \
	fi

# benchmark/ is the one measuring stick and the index engine has one
# scheduling path: the pre-benchmark harness, its baseline packages and
# the sched.Tuning ablation switches are gone, and nothing tracked may
# name them again. (The bracketed first letters keep the pattern from
# matching its own line.)
no-ablation-forks:
	@if git ls-files '*.go' Makefile '.claude/*' | xargs grep -nE '[N]o(MKHandoff|ReaderSets|BatchAdmit|AdmitYield)|[A]dmitYieldEvery|[S]chedTuning|[p]smr-bench|[i]nternal/(experiment|norep|direct|lockstore)' 2>/dev/null; then \
		echo "verify: a tracked file names the deleted harness or a deleted ablation switch"; \
		exit 1; \
	fi

# Steady-state allocation gate for the two admission hot paths: the
# index engine's batched keyed admission and the proxy-proposer's
# frame admission must both report 0 allocs/op (pooled inodes/tokens/
# reader groups and the pooled group buffers make admission recycle
# everything it touches; warm-up growth is excluded by the benchmarks'
# own design). A regression that re-introduces per-command garbage
# fails verify, not just a benchmark diff.
allocs-gate:
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkAdmitKeyedIndexBatch$$' -benchmem -benchtime 100000x ./internal/sched/); \
	echo "$$out"; \
	echo "$$out" | grep -q 'BenchmarkAdmitKeyedIndexBatch.* 0 allocs/op' || \
		{ echo "allocs-gate: BenchmarkAdmitKeyedIndexBatch no longer 0 allocs/op"; exit 1; }
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkProxySubmit$$' -benchmem -benchtime 100000x ./internal/proxy/); \
	echo "$$out"; \
	echo "$$out" | grep -q 'BenchmarkProxySubmit.* 0 allocs/op' || \
		{ echo "allocs-gate: BenchmarkProxySubmit no longer 0 allocs/op"; exit 1; }

# Flight-recorder gate: a journal emit that loses the sampling
# coin-flip must cost 0 allocs/op (the common case on the per-command
# paths). What tracing and the journal cost end to end is the
# benchmark's obs.trace_overhead_ratio, reported with its spread.
flight-gate:
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkJournalEmitSampledOut$$' -benchmem -benchtime 100000x ./internal/obs/); \
	echo "$$out"; \
	echo "$$out" | grep -q 'BenchmarkJournalEmitSampledOut.* 0 allocs/op' || \
		{ echo "flight-gate: BenchmarkJournalEmitSampledOut no longer 0 allocs/op"; exit 1; }

# The benchmark is a module of its own (benchmark/go.mod) that imports
# this module's internal packages: vet and test it, then run every
# workload for a few seconds with the per-layer sheet on, so a change
# that breaks the measuring stick fails here and not in the next
# measured run.
benchmark-check:
	cd benchmark && GOWORK=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local $(GO) vet ./... && GOWORK=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local $(GO) test ./...
	bash benchmark/run.sh -smoke --trace 1

# Race-detector pass over the whole module (the root e2e suite scales
# its workloads down under -race; see raceEnabled in race_test.go).
race:
	$(GO) test -race ./...

# The paxos suite had a teardown flake once; keep it honest.
paxos-stress:
	$(GO) test -count=5 ./internal/paxos/
