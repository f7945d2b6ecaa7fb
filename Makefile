GO ?= go

.PHONY: all build test check vet fmt-check ctxcheck docnames race determinism fuzz-short golden bench bench-smoke crash

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the CI gate: static checks (including the context-first API
# gate), the race detector on the packages with real concurrency
# (engine's pooled job runner, the parallel worker pool, olap's cube
# read concurrently by many goroutines (TestCubeConcurrentReads),
# similarity's pooled signature kernels and probe matrix over the
# stores' cell columns, obs's
# collector plus its export/critpath/window subpackages — all covered by
# the ./internal/obs/... wildcard, including the windowed-metrics bucket
# rings — the fault schedules and the planner's probed view, and the
# multi-tenant serve front end plus its flight recorder), one
# short round of each fuzz harness, and the report determinism check
# including cross-pool-width byte identity. The race target also carries the map→combine
# stage's differential oracle and allocation guard, the job round's key
# table against the per-record routing it replaced (TestRunMatchesReference)
# with its allocation guard, each job of a batch sharing combiners and a key
# index against the job run alone (TestRunConcurrentJobsMatchSolo) with the
# sharing's allocation guard (TestRunConcurrentSharesStageBuffers), a clone's
# moves against its snapshot's records (TestApplyMovesOnCloneLeavesSnapshot)
# and small forwards' amortised growth
# (TestSmallForwardsGrowDestinationAmortised), a Remove never writing a
# record slice the store handed out (TestRemoveNeverWritesAHandedOutSlice)
# and compacting one nobody holds in place
# (TestRemoveCompactsInPlaceWhenUnshared), the site store's
# differential against the reference mover with its tie-heavy leg and the
# selection helper's property test, the cell-count view's differential
# against olap's cubes on tie-heavy and moved stores
# (TestCellCountsMatchOlapCube), the store's clone-aliasing and
# memo-singleflight tests and concurrent first queries building one layout
# and one set of key columns per cold site while clones write into the
# dictionaries they share, with the carried columns' differential against a
# fresh encode (TestCarriedColumnsMatchFreshEncode), the carried key hashes'
# against KeyHash and a restored copy's layout
# (TestCarriedKeyHashesMatchRestoredLayout) and the hashed distinct count
# under colliding hashes (TestDistinctKeysExactUnderCollidingHashes)
# (engine; none of them is skipped under -short, and race passes no -short),
# the pooled signatures and pair rows reading the layout's key hashes in
# place, against the kernel that mixed every record
# (TestPairwiseMatchesRefSignature; TestSignatureBatchMatchesRefSignatureAdversarial
# on zero hashes, repeats and one probe chain, rdd), two
# goroutines planning two clones of one
# snapshot (placement), the query-miss statements against a naive fold
# across ingest, replan and Remove, a batch's next miss encoding the
# batch alone (TestMissAfterBatchEncodesTheBatch), and a captured checkpoint
# state surviving forwarding batches (TestCaptureStateSurvivesForwards)
# (serve), the key
# projection's differential against split-pick-join (TestViewKeyAgreesWithSplit,
# engine) and the generated queries' dims against their Views (workload),
# a compiled statement's coded scan against the reference
# closure and a naive fold (sql), and the LP solver against its reference
# (refSolve) with the certificate tests and TestSolvePlacementAllocs, whose
# second input is BenchmarkSolvePlacement10Sites20Datasets's (lp). bench-smoke
# runs the end-to-end benchmark's own tests, whose oracles and trace
# coverage floor nothing else in check sees. docnames fails on a test,
# benchmark or fuzz target the documents name that no _test.go defines,
# and on an exported config field that only tests or withDefaults write.
check: vet fmt-check ctxcheck docnames race fuzz-short determinism bench-smoke

vet:
	$(GO) vet ./...

# ctxcheck rejects exported functions in the I/O-bearing packages
# (core, engine, serve) whose names announce I/O or execution
# but that do not take a leading context.Context. See cmd/ctxcheck.
ctxcheck:
	$(GO) run ./cmd/ctxcheck

docnames:
	$(GO) test -run '^(TestDocNamesExist|TestConfigFieldsHaveWriters)$$' -count=1 .

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

race:
	$(GO) test -race ./internal/engine/... ./internal/obs/... ./internal/faults/... \
		./internal/parallel/... ./internal/olap/... ./internal/similarity/... ./internal/rdd/... \
		./internal/cache/... ./internal/serve/... ./internal/ingest/... \
		./internal/durable/... ./internal/lp/... ./internal/placement/... \
		./internal/workload/... ./internal/sql/...

# fuzz-short runs each native fuzz target briefly against its checked-in
# seed corpus — a smoke round, not a campaign. One -fuzz invocation per
# target (a go test restriction).
fuzz-short:
	$(GO) test ./internal/sql -run '^$$' -fuzz FuzzParse -fuzztime 5s
	$(GO) test ./internal/sql -run '^$$' -fuzz FuzzSelect -fuzztime 5s
	$(GO) test ./internal/faults -run '^$$' -fuzz FuzzParse -fuzztime 5s
	$(GO) test ./internal/ingest -run '^$$' -fuzz FuzzRecordCodec -fuzztime 5s
	$(GO) test ./internal/durable -run '^$$' -fuzz FuzzWALFrame -fuzztime 5s
	$(GO) test ./internal/durable -run '^$$' -fuzz FuzzSnapshotImage -fuzztime 5s

# crash runs the full crash-consistency harness under the race detector:
# 20 seeded kill-restart trials against a child bohrd (quiesced kills
# with byte-identical pinned queries, mid-stream kills inside the
# acked-but-unapplied window, racy kills landing mid-request, torn WAL
# tails), plus the recover-equals-never-crashed property and the
# server-crash chaos leg.
crash:
	$(GO) test -race ./internal/durable/crashtest -run TestCrashRecovery -count=1 -v
	$(GO) test -race ./internal/serve -run 'TestIngestServerCrashChaos|TestRecoverEquivalentToNeverCrashed' -count=1

# determinism: two bohrctl runs with the same seed and fault schedule must
# emit byte-identical JSON reports, and the report must be byte-identical
# whether the parallel kernels run sequentially (width 1) or pooled
# (width 8) — the faulted static report and the dynamic one, whose batches
# arrive through the served ingest path (experiments.RunDynamic calls
# core's IngestBatch) and whose replans and recurring queries go through
# the stores' derived state.
determinism:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	args="-workload bigdata-scan -scheme bohr -seed 7 -json -faults crash:site=2,start=40,end=70;degrade:site=0,start=0,end=120,factor=0.3"; \
	$(GO) run ./cmd/bohrctl $$args > "$$tmp/a.json"; \
	$(GO) run ./cmd/bohrctl $$args > "$$tmp/b.json"; \
	if ! cmp -s "$$tmp/a.json" "$$tmp/b.json"; then \
		echo "determinism: reports differ across identical runs"; \
		diff "$$tmp/a.json" "$$tmp/b.json" | head; exit 1; \
	fi; \
	grep -q '"fault_events"' "$$tmp/a.json" || \
		{ echo "determinism: report missing fault_events"; exit 1; }; \
	BOHR_PARALLEL_WIDTH=1 $(GO) run ./cmd/bohrctl $$args > "$$tmp/w1.json"; \
	BOHR_PARALLEL_WIDTH=8 $(GO) run ./cmd/bohrctl $$args > "$$tmp/w8.json"; \
	if ! cmp -s "$$tmp/w1.json" "$$tmp/w8.json"; then \
		echo "determinism: reports differ between pool width 1 and 8"; \
		diff "$$tmp/w1.json" "$$tmp/w8.json" | head; exit 1; \
	fi; \
	dargs="-dynamic -workload tpcds -scheme bohr -seed 7 -json"; \
	BOHR_PARALLEL_WIDTH=1 $(GO) run ./cmd/bohrctl $$dargs > "$$tmp/d1.json"; \
	BOHR_PARALLEL_WIDTH=8 $(GO) run ./cmd/bohrctl $$dargs > "$$tmp/d8.json"; \
	if ! cmp -s "$$tmp/d1.json" "$$tmp/d8.json"; then \
		echo "determinism: dynamic reports differ between pool width 1 and 8"; \
		diff "$$tmp/d1.json" "$$tmp/d8.json" | head; exit 1; \
	fi; \
	echo "determinism: OK (byte-identical faulted reports, width-independent static and dynamic)"

# golden rebuilds every checked-in golden file from current code. Run it
# after an intentional schema or trace change, eyeball the diff, and bump
# core.ReportSchemaVersion if the report layout moved.
golden:
	$(GO) test ./internal/experiments -run 'TestReportSchemaGolden|TestDynamicGolden|TestOlapTablesGolden|TestFaultSweepGolden' -update
	$(GO) test ./internal/obs/export -run TestChromeTraceGolden -update

# bench runs the end-to-end benchmark harness (bench/, BENCHMARK.json):
# one workload when W names it, all four otherwise. TRACE=1 prints the
# per-layer metrics instead of the end-to-end ones.
W ?=
SEED ?= 42
TRACE ?= 0
bench:
	@for w in $(if $(W),$(W),fig6-batch query-miss query-ingest-mix ingest-durable); do \
		bash bench/run.sh --workload $$w --seed $(SEED) --seconds 20 --trace $(TRACE) || exit 1; \
	done

# bench-smoke runs every bench/ workload at a twentieth of its length,
# untraced and traced, three times: the oracles (delivered == sent,
# post-recovery counts, query rows against a naive fold) and the floor on
# trace.coverage (≥ 0.9 — an un-spanned cost that grows relative to the
# spanned ones fails it) must hold on each.
bench-smoke:
	$(GO) test ./bench -count=3
