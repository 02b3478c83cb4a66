.PHONY: tier1 extended lint lint-fix-check bench-smoke

# Tier-1 gate: must stay green on every PR.
tier1:
	go build ./...
	go test ./...

# Determinism/pooling analyzer suite (cmd/daslint), both ways it deploys:
# standalone over the whole module (the only mode that runs the
# interprocedural transfer/replies analyzers and the stale-directive
# check), then through the `go vet -vettool` protocol, which additionally
# covers _test.go files with the per-package analyzers.
lint:
	go run ./cmd/daslint ./...
	go build -o "$$(go env GOTMPDIR 2>/dev/null || echo /tmp)/daslint-vettool" ./cmd/daslint
	go vet -vettool="$$(go env GOTMPDIR 2>/dev/null || echo /tmp)/daslint-vettool" ./...

# Machine-readable lint pass: asserts the module is finding-free via the
# -json output (any JSON line on stdout is a finding). CI consumes this;
# locally it is the quick "is my suppression correct" check.
lint-fix-check:
	@out="$$(go run ./cmd/daslint -json ./... 2>&1)"; \
	if [ -n "$$out" ]; then \
		echo "$$out"; \
		echo "lint-fix-check: findings remain (fix them or annotate with //das:allow/-transfer -- reason)"; \
		exit 1; \
	fi; \
	echo "lint-fix-check: clean"

# Extended gate: vet + daslint (both modes) + race on top of tier-1, plus
# the repository benchmark's own module (perfbench/), which tier-1 never
# builds.
extended: tier1 lint lint-fix-check
	go vet ./...
	go test -race ./...
	cd perfbench && go test ./...

# Bench smoke: short cache, restripe, p99-controller, scale, tenants and
# pipeline experiments end to end (reduced configuration, JSON reports in
# the gitignored $(SMOKE_DIR)) plus the adaptive subsystems under the race
# detector. It never modifies a tracked file.
SMOKE_DIR := .bench_smoke

bench-smoke:
	mkdir -p $(SMOKE_DIR)
	go run ./cmd/dasbench -quick -exp cache -smoke -json $(SMOKE_DIR)/BENCH_cache_smoke.json
	go run ./cmd/dasbench -quick -exp restripe -smoke -json $(SMOKE_DIR)/BENCH_restripe_smoke.json
	go run ./cmd/dasbench -quick -exp p99 -smoke -json $(SMOKE_DIR)/BENCH_p99_smoke.json
	go run ./cmd/dasbench -exp scale -smoke -json $(SMOKE_DIR)/BENCH_scale_smoke.json
	go run ./cmd/dasbench -quick -exp tenants -smoke -json $(SMOKE_DIR)/BENCH_tenants_smoke.json
	go run ./cmd/dasbench -quick -exp pipeline -smoke -json $(SMOKE_DIR)/BENCH_pipeline_smoke.json
	go test -race ./internal/control/... ./internal/cache/... ./internal/restripe/... ./internal/tenants/... ./internal/pipeline/...
