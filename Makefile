# Common targets for the dynamic-voting reproduction.

PYTHON ?= python

.PHONY: install test bench bench-record bench-compare tables sweep validate examples clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

# test/bench run against the source tree directly; no install needed.
test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Append the next BENCH_<n>.json trajectory point (quick workloads).
bench-record:
	PYTHONPATH=src $(PYTHON) -m repro bench record --quick

# Gate the latest trajectory point against the committed baseline (the
# mask-kernel point; BENCH_0.json predates it and is ~3x slower).
bench-compare:
	PYTHONPATH=src $(PYTHON) -m repro bench compare --baseline BENCH_1.json

# Paper-scale regeneration of Tables 2 and 3 (minutes, not seconds).
tables:
	REPRO_SIM_DAYS=200000 $(PYTHON) -m repro study

sweep:
	$(PYTHON) -m repro sweep --config F

validate:
	$(PYTHON) -m repro validate

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
