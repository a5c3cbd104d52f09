# Convenience entry points; CI runs scripts/check.sh.
PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: lint test check baseline bench pairs sweep

lint:
	$(PYTHON) -m repro lint src/repro

test:
	$(PYTHON) -m pytest -x -q

# The repository's benchmark (BENCHMARK.json, docs/PERFORMANCE.md).
bench:
	python3 bench/run.py

# Ten alternating pairs of PARENT and the working tree on one workload,
# or on every one with WORKLOAD=all — what a claimed gain is shown with
# (docs/PERFORMANCE.md).
PARENT ?= HEAD
WORKLOAD ?= sim_n4_modp1536
PAIRS ?= 10
pairs:
	./scripts/pairs.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# Re-take the tracked sweep results (docs/CHAOS.md, "Sweeps");
# scripts/check.sh fails once its simulator runs stop matching them.
sweep:
	$(PYTHON) -m repro sweep --smoke --out SWEEP.json --markdown docs/SWEEP.md

check:
	./scripts/check.sh

# Re-snapshot the lint baseline (then add a justifying "reason" to each
# new entry — the guard test requires one).
baseline:
	$(PYTHON) -m repro lint src/repro --write-baseline
