"""The benchmark's span wrappers find every name they patch, and put it back.

The benchmark's workloads call the package as they did when they were written.
"""

import importlib.util
import pathlib

import numpy as np

from ltclab import harness, tanner
from ltclab.code import Word, reed_solomon
from ltclab.field import Field
from ltclab.tensor import tensor_power

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_bench("tracing")
TARGETS = [(owner, attr) for _, targets, *_ in tracing.SPANS for owner, attr in targets]


def test_every_span_target_exists():
    missing = [(owner, attr) for owner, attr in TARGETS if attr not in owner.__dict__]
    assert not missing


def test_tracer_patches_and_restores_every_target():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in TARGETS]
    tracer = tracing.Tracer()
    with tracer.installed():
        for owner, attr, fn in originals:
            assert owner.__dict__[attr] is not fn
            assert owner.__dict__[attr].__wrapped__ is fn
        harness.run_expansion_check(tanner.product_graph(2, 3))
    for owner, attr, fn in originals:
        assert owner.__dict__[attr] is fn
    # The scan counts boundaries through the name harness imports.
    assert tracer.calls["tanner.boundary_edge_count"] >= 1


def test_streaming_code_nearest_takes_flat_words(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # workloads imports tracing
    workloads = _load_bench("workloads")
    t = tensor_power(reed_solomon(Field(5), 3, 2), 2)
    stream, flat = workloads.streaming_code(t), t.as_linear_code()
    for values in np.random.default_rng(5).integers(0, 5, size=(4, 9)):
        word = Word(Field(5), values)
        assert stream.nearest(word) == flat.nearest(word)
