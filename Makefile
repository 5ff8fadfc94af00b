.PHONY: install test bench bench-perf bench-parallel chaos examples report lint lint-docs all

install:
	python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

bench-perf:
	pytest benchmarks/bench_perf_pipeline.py benchmarks/bench_perf_parallel.py \
		benchmarks/bench_perf_sql.py benchmarks/bench_perf_profile.py \
		benchmarks/bench_perf_timeseries.py benchmarks/bench_perf_serve.py \
		--benchmark-only

bench-parallel:
	pytest benchmarks/bench_perf_parallel.py --benchmark-only

chaos:
	python -m repro.cli chaos --seed 7

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f > /dev/null || exit 1; done

report:
	python -m repro.cli report --out STUDY_REPORT.md

lint:
	ruff check src/repro/sql src/repro/table
	mypy src/repro/sql src/repro/table

all: test bench examples report
