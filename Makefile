# Developer entry points.  PYTHONPATH=src is how the repo is run
# everywhere (tests, benches, examples); no install step required.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint fuzz bench-homengine bench-cactus bench-batch bench-decomp bench-semiring bench-store bench-service bench-chaos bench check ci

## tier-1 test suite (the gate every PR must keep green)
test:
	$(PYTHON) -m pytest -x -q

## ruff lint (config in pyproject.toml); degrades to a syntax check
## when ruff is not installed (the offline dev container).  Also
## enforces the configuration architecture: os.environ may only be
## read in core/config.py (EngineConfig.from_env is the single
## env-var ingestion point).
lint: lint-env-gate
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests scripts benchmarks examples; \
	else \
		echo "ruff not installed; falling back to a compile check"; \
		$(PYTHON) -m compileall -q src tests scripts benchmarks examples; \
	fi

.PHONY: lint-env-gate
lint-env-gate:
	@hits=$$(grep -rnE "os\.environ|os\.getenv|from os import.*environ|getenv" src/repro --include='*.py' | grep -v "^src/repro/core/config\.py:"); \
	if [ -n "$$hits" ]; then \
		echo "env gate: environment read outside core/config.py:"; \
		echo "$$hits"; \
		exit 1; \
	else \
		echo "env gate: ok (environment reads confined to core/config.py)"; \
	fi

## differential fuzz smoke: seeded cross-check of all hom backends,
## serial-vs-parallel sharding, and governed-session sanity.  The
## fixed seed makes CI failures replayable locally with the same
## arguments; --seconds caps the job even on throttled runners.  The
## second leg reruns with the durable store enabled, cross-checking
## disk-replayed answers against the in-memory path and ending with a
## full checksum sweep.
fuzz:
	$(PYTHON) scripts/fuzz_differential.py --seed 0 --cases 2000 --seconds 25
	rm -rf /tmp/repro-fuzz-store
	$(PYTHON) scripts/fuzz_differential.py --seed 7 --cases 500 --seconds 15 \
		--cache-dir /tmp/repro-fuzz-store

## hom-engine backend comparison (naive vs bitset); writes BENCH_homengine.json
bench-homengine:
	$(PYTHON) scripts/bench_homengine.py

## incremental vs from-scratch cactus construction; writes BENCH_cactus.json
bench-cactus:
	$(PYTHON) scripts/bench_cactus.py

## matrix backend + sharded batch runtime; writes BENCH_batch.json
bench-batch:
	$(PYTHON) scripts/bench_batch.py

## decomp backend + delta warm-started probe; writes BENCH_decomp.json
bench-decomp:
	$(PYTHON) scripts/bench_decomp.py

## semiring surface: COUNT-via-decomp overhead + PROB matvec speedup;
## writes BENCH_semiring.json
bench-semiring:
	$(PYTHON) scripts/bench_semiring.py

## durable-store warm restarts across process boundaries; writes
## BENCH_store.json
bench-store:
	$(PYTHON) scripts/bench_store.py

## the job service under concurrent load + kill -9 resume; writes
## BENCH_service.json
bench-service:
	$(PYTHON) scripts/bench_service.py

## the job service under injected faults (worker/server kills, drain,
## bit-flips, cancel storms, poison jobs); writes BENCH_chaos.json
bench-chaos:
	$(PYTHON) scripts/bench_chaos.py

## all experiment benchmarks (E1-E18), default engine configuration.
## The files are named bench_e*.py, so collection is widened here only:
## tier-1 must not pick up scripts/bench_*.py.
bench:
	$(PYTHON) -m pytest benchmarks -q -o python_files='bench_*.py'

## tier-1 tests plus the engine perf criteria
check: test
	$(PYTHON) scripts/bench_homengine.py --check
	$(PYTHON) scripts/bench_cactus.py --check
	$(PYTHON) scripts/bench_batch.py --check
	$(PYTHON) scripts/bench_decomp.py --check
	$(PYTHON) scripts/bench_semiring.py --check
	$(PYTHON) scripts/bench_store.py --check
	$(PYTHON) scripts/bench_service.py --check
	$(PYTHON) scripts/bench_chaos.py --check

## everything the CI workflow runs (tests, lint, fuzz smoke, perf gates)
ci: test lint fuzz
	$(PYTHON) scripts/bench_homengine.py --check --output /tmp/BENCH_homengine.json
	$(PYTHON) scripts/bench_cactus.py --check --output /tmp/BENCH_cactus.json
	$(PYTHON) scripts/bench_batch.py --check --output /tmp/BENCH_batch.json
	$(PYTHON) scripts/bench_decomp.py --check --output /tmp/BENCH_decomp.json
	$(PYTHON) scripts/bench_semiring.py --check --output /tmp/BENCH_semiring.json
	$(PYTHON) scripts/bench_store.py --check --output /tmp/BENCH_store.json
	$(PYTHON) scripts/bench_service.py --check --output /tmp/BENCH_service.json
	$(PYTHON) scripts/bench_chaos.py --check --output /tmp/BENCH_chaos.json
