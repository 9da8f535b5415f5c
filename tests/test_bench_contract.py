"""The benchmark's span wrappers find every name they patch, and put it back."""

import importlib.util
import pathlib

from ltclab import harness, tanner

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
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
