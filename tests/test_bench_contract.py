"""The benchmark's span wrappers find every name they patch, and put it back.

The benchmark's workloads call the package as they did when they were written.
"""

import hashlib
import importlib.util
import pathlib

import numpy as np

from ltclab import harness, reports, tanner
from ltclab.code import Word, reed_solomon, repetition
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


def test_every_workload_reproduces_its_digest(monkeypatch):
    # One untimed job per workload at the default seed, as the benchmark's correctness gate runs it.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # workloads imports tracing
    workloads = _load_bench("workloads")
    assert set(workloads.WORKLOADS) == set(workloads.DIGESTS)
    for name, workload in workloads.WORKLOADS.items():
        document, failed = workload.run(workload.setup(), workloads.DEFAULT_SEED, lambda fn, *a, **kw: fn(*a, **kw))
        assert failed == 0, name
        assert hashlib.sha256(reports.json_bytes(document)).hexdigest() == workloads.DIGESTS[name], name


def test_streaming_code_nearest_takes_flat_words(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # workloads imports tracing
    workloads = _load_bench("workloads")
    t = tensor_power(reed_solomon(Field(5), 3, 2), 2)
    stream, flat = workloads.streaming_code(t), t.as_linear_code()
    for values in np.random.default_rng(5).integers(0, 5, size=(4, 9)):
        word = Word(Field(5), values)
        assert stream.nearest(word) == flat.nearest(word)


def _traced_warm_call(code, words):
    """The span calls and counters that one nearest_distance_batch call adds on a warm table."""
    tracer = tracing.Tracer()
    with tracer.installed():
        code.codewords()
        calls, counts = dict(tracer.calls), dict(tracer.counts)
        code.nearest_distance_batch(words)
    added = {name: n - calls[name] for name, n in tracer.calls.items() if n != calls[name]}
    return added, {name: n - counts.get(name, 0) for name, n in tracer.counts.items()}


def test_a_warm_oracle_call_reads_the_table_once_in_its_own_span():
    # The oracle compares with the planes of the first group of codewords and reads no table.
    flat = reed_solomon(Field(5), 4, 2)
    calls, counts = _traced_warm_call(flat, np.zeros((3, 4), dtype=np.int64))
    assert calls == {"code.nearest_distance_batch": 1}
    assert (counts.get("code.codewords.hits"), counts.get("code.codewords.misses", 0)) == (None, 0)
    t = tensor_power(repetition(Field(2), 3), 2)
    calls, counts = _traced_warm_call(t, np.zeros((3, 9), dtype=np.int64))
    assert calls == {"tensor.nearest_distance_batch": 1}
    assert (counts.get("code.codewords.hits"), counts.get("code.codewords.misses", 0)) == (None, 0)
