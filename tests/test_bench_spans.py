"""The benchmark tracer's targets still name functions of the package.

`bench/spans.py` wraps each `TARGETS` entry by name and calls its counter
with the call's result and arguments. A renamed function or a changed
signature would otherwise show only in a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

SPANS_PATH = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()
POSITIONAL = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)


def counter_misfits(fn, counter) -> list:
    """Counts of positional arguments `fn` accepts that `counter` cannot take after a result."""
    params = [p for p in inspect.signature(fn).parameters.values() if p.kind in POSITIONAL]
    required = sum(p.default is inspect.Parameter.empty for p in params)
    misfits = []
    for given in range(required, len(params) + 1):
        try:
            inspect.signature(counter).bind(None, *range(given))
        except TypeError:
            misfits.append(given)
    return misfits


def test_targets_found():
    assert "mechanisms.read_records" in SPANS.TARGETS
    assert "mechanisms.write_records" in SPANS.TARGETS


@pytest.mark.parametrize("name", sorted(SPANS.TARGETS))
def test_target_is_a_package_function(name):
    module, attr = name.split(".")
    fn = getattr(importlib.import_module("reidrisk." + module), attr, None)
    assert inspect.isfunction(fn), f"reidrisk.{name} is not a function"
    assert not counter_misfits(fn, SPANS.TARGETS[name])


def test_counter_misfits_finds_each_mismatch():
    def two(path, batch, extra=None):
        pass

    assert counter_misfits(two, lambda r, path, batch: {}) == [3]
    assert counter_misfits(two, lambda r, path, user_idx, batch: {}) == [2]
    assert counter_misfits(two, lambda r, *a, **k: {}) == []
