# Flood — learned multi-dimensional index (reproduction of "Learning
# Multi-Dimensional Indexes", SIGMOD 2020).

GO ?= go

.PHONY: all fmt generate build test kernels vet docs loc bench bench-full fuzz-smoke clean

all: fmt vet build test kernels

# fmt fails when any file is not gofmt-clean, naming the files.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -l . is not empty:"; echo "$$out"; exit 1; fi

# generate rewrites internal/colstore/kernels_gen.go, the width-specialised
# unpack and compare kernels, from gen_kernels.go. The output is committed; CI
# regenerates it and fails on a diff.
generate:
	$(GO) generate ./internal/colstore

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# kernels runs the scan-stage packages under the two builds `make test` does
# not compile — purego, where the generated Go kernels are the packed compare
# (on amd64 the default build puts the AVX2 routine of cmp_amd64.s above
# them), and floodscalar, the oracle with no packed kernel at all — and builds
# and vets for arm64, where the assembly is not compiled.
kernels:
	$(GO) test -tags purego ./internal/colstore ./internal/query ./internal/core
	$(GO) test -tags floodscalar ./internal/colstore ./internal/query ./internal/core
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./...

# vet includes asmdecl, which checks cmp_amd64.s against its Go declarations.
vet:
	$(GO) vet ./...

# docs gates the documentation: vet plus a lint over every package of the
# module but the commands (go list derives the list, so a new package cannot
# escape it). The lint fails on an undocumented exported identifier and on a
# callerless export: a top-level name that no other package in the module
# names, or a method that no non-test file selects and no interface reaches,
# unless an //api:keep line (on the declaration, or on the package for a test
# harness) explains it. CI runs this on every push.
docs: vet
	$(GO) run ./cmd/doclint $$($(GO) list -f '{{if ne .Name "main"}}{{.Dir}}{{end}}' ./...)

# loc prints the code size ROADMAP tracks: non-blank, non-comment lines of the
# non-test Go files of the root package plus internal/server (the facades and
# the serving tier over them), then the same count for the two packages they
# sit between, then internal/colstore's hand-written files (kernels_gen.go is
# `make generate` output), then internal/baseline with every package under
# it, then the commands plus the model-test harness — the consumers that
# adapt a store, so an adapter written per kind of store shows up here — and
# last internal/rforest, which ROADMAP tracks as a candidate for deletion. CI
# prints it on every run, so each PR shows its delta.
LOC = ls $(1)/*.go | grep -vE '_test.go|kernels_gen.go' | xargs cat | grep -cvE '^[[:space:]]*(//|$$)'
loc:
	@root=$$($(call LOC,.)); server=$$($(call LOC,internal/server)); \
	echo "root + internal/server: $$((root + server)) (root $$root, internal/server $$server)"; \
	echo "internal/core: $$($(call LOC,internal/core))"; \
	echo "floodsql: $$($(call LOC,floodsql))"; \
	echo "internal/colstore (without kernels_gen.go): $$($(call LOC,internal/colstore))"; \
	echo "internal/baseline/...: $$(find internal/baseline -name '*.go' ! -name '*_test.go' | xargs cat | grep -cvE '^[[:space:]]*(//|$$)')"; \
	echo "cmd/... + internal/modeltest: $$(find cmd internal/modeltest -name '*.go' ! -name '*_test.go' | xargs cat | grep -cvE '^[[:space:]]*(//|$$)')"; \
	echo "internal/rforest: $$($(call LOC,internal/rforest))"

# bench runs the scan-kernel, build, parallel-execution, row-retrieval, and
# context/limit benchmarks that gate perf PRs and records them in
# BENCH_scan.json so the trajectory is diffable in git. LookupPoint and
# ParseLookup are the selective-query path on the repository benchmark's
# lookup_sql store: SQL text to one decoded row, and the parser alone on
# that workload's four statement shapes. SelectLimit10From1M
# proves the LIMIT pushdown short-circuits (compare rows scanned against
# SelectRows1M); Execute1M vs ExecuteContext1M is the context-plumbing
# overhead-parity pair. Estimate, ForestPredict and FindOptimalLayout are the
# layout search: one sample evaluation (against the straight-line oracle), one
# weight forest's prediction, and one whole search over 100k rows at the
# repository benchmark's effort and at the optimizer's defaults, and over 2M
# rows (olap_flat's table, where drawing the sample shows). DecodeBlock and
# CompareBlock are one 128-value block through the packed kernels (cmd/benchjson records which compare the host
# selected as scan_kernel) at the five commonest delta widths of the
# repository benchmark's tables; NewColumn is 131,072 values encoded at one
# delta width, the generated pack kernels at 5, 13 and 23 bits and the bit
# loop at 40; AggregateBlock is one block's survivors
# folded under the selection mask per aggregate, mask density and width, and
# BitmapAndBlock one block's predicate through the interval-encoded bitmap
# index by the number of values the range spans, over a uniform column and
# over a drifting one whose stripes hold other domains. DictEqScan1M and DictRangeScan1M
# are the bitmap index against the residual compare, end to end. Build2M,
# TrainCDF, Calibrate100k, ForestTrain and RebuildMerge500k are construction:
# the build olap_flat's set-up waits for, one CDF (the cost model's and the
# shard splitter's model; a build trains none) over a narrow and over a
# full-range column, one live calibration as learn_build runs it, one of its
# three forests, and one merge of buffered rows into an index.
# TableBuilderBuild is ingest: fitting and encoding the 500k-row typed sales
# table the SQL workloads start from. AdaptiveInsert and
# AdaptiveQueryPendingLog are the insert log's trade: one Insert, which seals
# a block every 128 rows, and a selective read over 0 to 5,000 pending rows.
bench:
	$(GO) test ./internal/core -run '^$$' \
		-bench 'Residual|WideRect|SteadyState|Build1M|Build200k|Build2M|RebuildMerge500k|Ablation|Parallel|Batch|DeleteHeavy' \
		-benchmem -benchtime=1s | tee /tmp/bench_scan.txt
	$(GO) test ./internal/rmi ./internal/rforest ./internal/costmodel -run '^$$' \
		-bench '^BenchmarkTrainCDF$$|^BenchmarkForestTrain$$|^BenchmarkForestPredict$$|^BenchmarkCalibrate100k$$' \
		-benchmem -benchtime=1s | tee -a /tmp/bench_scan.txt
	$(GO) test ./internal/colstore -run '^$$' -bench '^BenchmarkDecodeBlock$$|^BenchmarkNewColumn$$|^BenchmarkCompareBlock$$|^BenchmarkAggregateBlock$$|^BenchmarkBitmapAndBlock$$' \
		-benchmem -benchtime=1s | tee -a /tmp/bench_scan.txt
	$(GO) test . -run '^$$' -bench '^BenchmarkSelect|^BenchmarkExecute|^BenchmarkSaveLoad|^BenchmarkDict|^BenchmarkSharded|^BenchmarkTableBuilderBuild$$|^BenchmarkAdaptiveInsert$$|^BenchmarkAdaptiveQueryPendingLog$$' \
		-benchmem -benchtime=1s | tee -a /tmp/bench_scan.txt
	$(GO) test ./floodsql -run '^$$' -bench '^BenchmarkLookupPoint$$|^BenchmarkParseLookup$$' \
		-benchmem -benchtime=1s | tee -a /tmp/bench_scan.txt
	$(GO) test ./internal/wal -run '^$$' -bench 'WALAppend' \
		-benchmem -benchtime=1s | tee -a /tmp/bench_scan.txt
	$(GO) test ./internal/costmodel ./internal/optimizer -run '^$$' \
		-bench '^BenchmarkEstimate$$|^BenchmarkFindOptimalLayout$$' \
		-benchmem -benchtime=1s | tee -a /tmp/bench_scan.txt
	$(GO) run ./cmd/benchjson < /tmp/bench_scan.txt > BENCH_scan.json

# fuzz-smoke gives each fuzz target a short coverage-guided run (also a CI
# job). FuzzSQLDifferential is the differential one: every aggregate it
# generates must get the same answer from a flat, a sharded and a full-scan
# index. Each run starts from its target's testdata/fuzz corpus as well as
# its f.Add seeds; floodsql/testdata/fuzz/FuzzFloodSQLParse holds the lexer's
# number and string edges (digit separators, a negative decimal, an int64
# overflow, a qualified name, a doubled quote, an unterminated string).
# Minimization is capped so single-CPU runners keep mutating instead of
# shrinking corpus entries for 60s each.
fuzz-smoke:
	$(GO) test . -run '^$$' -fuzz '^FuzzWireDecode$$' \
		-fuzztime 30s -fuzzminimizetime 10x
	$(GO) test ./floodsql -run '^$$' -fuzz '^FuzzFloodSQLParse$$' \
		-fuzztime 30s -fuzzminimizetime 10x
	$(GO) test ./floodsql -run '^$$' -fuzz '^FuzzSQLDifferential$$' \
		-fuzztime 30s -fuzzminimizetime 10x
	$(GO) test ./internal/colstore -run '^$$' -fuzz '^FuzzCompareBlock$$' \
		-fuzztime 30s -fuzzminimizetime 10x
	$(GO) test ./internal/colstore -run '^$$' -fuzz '^FuzzBitmapAndBlock$$' \
		-fuzztime 30s -fuzzminimizetime 10x
	$(GO) test ./internal/colstore -run '^$$' -fuzz '^FuzzAggregateBlock$$' \
		-fuzztime 30s -fuzzminimizetime 10x
	$(GO) test ./internal/colstore -run '^$$' -fuzz '^FuzzRadixSort$$' \
		-fuzztime 30s -fuzzminimizetime 10x
	$(GO) test ./internal/colstore -run '^$$' -fuzz '^FuzzColumnLowerBound$$' \
		-fuzztime 30s -fuzzminimizetime 10x
	$(GO) test ./internal/colstore -run '^$$' -fuzz '^FuzzColumnEncode$$' \
		-fuzztime 30s -fuzzminimizetime 10x
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzStepPoints$$' \
		-fuzztime 30s -fuzzminimizetime 10x
	$(GO) test ./internal/encode -run '^$$' -fuzz '^FuzzFitDictionary$$' \
		-fuzztime 30s -fuzzminimizetime 10x
	$(GO) test ./internal/shard -run '^$$' -fuzz '^FuzzManifestDecode$$' \
		-fuzztime 30s -fuzzminimizetime 10x

# bench-full additionally covers the colstore micro-benchmarks.
bench-full: bench
	$(GO) test ./internal/colstore -run '^$$' -bench . -benchmem -benchtime=1s

clean:
	rm -f /tmp/bench_scan.txt
