GO ?= go

.PHONY: all build test check vet fmt-check docnames race determinism fuzz-short golden bench bench-smoke bench-micro crash

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the CI gate, one target per line:
#   vet, fmt-check  go vet and gofmt;
#   docnames        documents name only tests and identifiers that exist,
#                   DESIGN.md's module map matches the package tree,
#                   every config field has a non-test writer, and
#                   exported I/O-bearing functions take a leading context;
#   race            the packages with real concurrency, their oracles, and
#                   bohrd serve run in-process (TestLoadIntoServe);
#   fuzz-short      one short round of each fuzz target;
#   determinism     byte-identical reports across runs and pool widths;
#   bench-smoke     the end-to-end benchmark's own tests;
#   bench-micro     every in-package benchmark, run once.
# DESIGN.md §14 lists where each invariant's test runs.
check: vet fmt-check docnames race fuzz-short determinism bench-smoke bench-micro

vet:
	$(GO) vet ./...

docnames:
	$(GO) test -run '^(TestDocNamesExist|TestModuleMapMatchesTree|TestModuleMapCheckNamesEachProblem|TestConfigFieldsHaveWriters|TestExportedIOTakesContextFirst)$$' -count=1 .

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
		./internal/workload/... ./internal/sql/... ./internal/core/... \
		./cmd/bohrd/...

# fuzz-short runs each native fuzz target briefly against its checked-in
# seed corpus — a smoke round, not a campaign. One -fuzz invocation per
# target (a go test restriction).
fuzz-short:
	$(GO) test ./internal/sql -run '^$$' -fuzz FuzzParse -fuzztime 5s
	$(GO) test ./internal/sql -run '^$$' -fuzz FuzzSelect -fuzztime 5s
	$(GO) test ./internal/faults -run '^$$' -fuzz FuzzParse -fuzztime 5s
	$(GO) test ./internal/ingest -run '^$$' -fuzz FuzzRecordCodec -fuzztime 5s
	$(GO) test ./internal/ingest -run '^$$' -fuzz FuzzDecodeBatch -fuzztime 5s
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
# the stores' derived state. bohrbench's whole -json document, every
# report of which comes through the run table, must not depend on the
# width either.
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
	$(GO) build -o "$$tmp/bohrbench" ./cmd/bohrbench; \
	"$$tmp/bohrbench" -quick -exp all -width 1 -json "$$tmp/b1.json" > /dev/null; \
	"$$tmp/bohrbench" -quick -exp all -width 8 -json "$$tmp/b8.json" > /dev/null; \
	if ! cmp -s "$$tmp/b1.json" "$$tmp/b8.json"; then \
		echo "determinism: bohrbench documents differ between pool width 1 and 8"; \
		diff "$$tmp/b1.json" "$$tmp/b8.json" | head; exit 1; \
	fi; \
	echo "determinism: OK (byte-identical faulted reports, width-independent static, dynamic and bohrbench)"

# golden rebuilds every checked-in golden file from current code. Run it
# after an intentional schema or trace change, eyeball the diff, and bump
# core.ReportSchemaVersion if the report layout moved.
golden:
	$(GO) test ./internal/experiments -run 'TestReportSchemaGolden|TestDynamicGolden|TestOlapTablesGolden|TestFaultSweepGolden' -update
	$(GO) test ./internal/obs/export -run TestChromeTraceGolden -update
	$(GO) test ./cmd/bohrctl -run 'TestGolden|TestSchemeTable' -update
	$(GO) test ./cmd/bohrbench -run TestQuickAllGolden -update

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

# bench-micro runs each benchmark under internal/ for one iteration, so the
# layer benchmarks the documents quote (BenchmarkQueryMissRefresh,
# BenchmarkQueryIngestMixCycle, BenchmarkRunConcurrentFig6,
# BenchmarkScanSelect, ...) keep building and running. It measures nothing;
# about 6 s on 2 vCPUs.
bench-micro:
	$(GO) test ./internal/... -run '^$$' -bench . -benchtime 1x
