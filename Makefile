# Convenience targets for the repro package.

.PHONY: install test bench repro-all examples clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ -s

repro-all:
	python -m repro run all --csv results/

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f || exit 1; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache results
	find . -name __pycache__ -type d -exec rm -rf {} +
