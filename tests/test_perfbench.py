"""The benchmark's tracer names library functions by string; each must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from cryptoherm import quasistationary

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_and_method_resolves(tracing):
    for module, name, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"cryptoherm.{module}"), name))
    for module, cls, method, _ in tracing.METHODS:
        assert callable(getattr(importlib.import_module(f"cryptoherm.{module}"), cls).__dict__[method])


def test_a_traced_scan_draws_through_the_wrapped_samplers(tracing):
    # the tracer wraps each SAMPLERS drawer; the wrapper keeps its degree,
    # so a scan by name still samples through it
    samplers = quasistationary.SAMPLERS
    assert samplers and all(draw.degree >= 1 for draw in samplers.values())
    expected = {name: quasistationary.qs_scan(name, 3, 2, 0) for name in samplers}
    tracer = tracing.Tracer()
    with tracer.installed():
        for name, stats in expected.items():
            assert quasistationary.qs_scan(name, 3, 2, 0) == stats
    _, calls = tracer.totals(in_ops=False)
    assert calls[tracing.SAMPLE] == len(samplers)
    assert calls["quasistationary.qs_scan"] == len(samplers)
