"""Experiment orchestration: instance specs, sweeps, and structural checks.

Inline specification grammar (used by the CLI and the scripts)
--------------------------------------------------------------

Codes:
    rs:q=7,n=7,k=2        Reed-Solomon over GF(7)
    rep:q=2,n=3           repetition code
    full:q=2,n=3          the whole space
    gen:PATH / PATH.json  a generator-matrix code from a code-spec file
    SPEC^m                the m-fold tensor power of any of the above

Graphs:
    product:n=2,m=3       the axis test graph on [n]^m
    iterated:n=2,m=4,mp=2 composed axis test graphs (m-dim down to mp-dim)
    square:n=2,t=2        the recursive degree-n^2 family
    PATH.json             an explicit graph file {"n","m","t","lists"}

All randomness is derived from one integer seed; rerunning a configuration
with the same seed produces byte-identical JSON reports (wall-clock time is
printed to the console, never serialized).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from typing import Optional

import numpy as np

from .code import LinearCode, Word, as_integer, full_code, reed_solomon, repetition
from .config import BROADCAST_CELLS, within
from .corpus import corpus_values, generate_corpus, parse_corpus_spec
from .errors import TooLargeToEnumerateError
from .field import Field
# json_bytes is not called here; it stays a name of this module for the benchmark's tracer, which patches it.
from .reports import frac_decimal, frac_str, json_bytes, parse_keys
from .tanner import (
    _ROW_BLOCK,
    OrderedGraph,
    boundary_edge_count,
    iterated_graph,
    product_graph,
    square_test_graph,
    tpc_linear_code,
)
from .tensor import TensorCode, TensorWord, tensor_power
from .tester import TestInstance


# --- inline specs -------------------------------------------------------------


class _Fields(dict):
    """The keys of a spec or spec file (none unless it is an object); a missing key is a usage error."""

    def __init__(self, source: str, doc):
        super().__init__(doc if isinstance(doc, dict) else {})
        self.source = source

    def __missing__(self, key):
        raise ValueError(f"{self.source} has no {key!r}")

    def integer(self, key: str) -> int:
        """The value at ``key``, which must be an integer (not a float, a string or a bool)."""
        value = self[key]
        try:
            return as_integer(value)
        except TypeError:
            raise ValueError(f"{self.source}: {key!r} must be an integer, got {value!r}") from None


# Each inline kind: its constructor and the keys it reads, in argument order.
_CODE_KINDS = {
    "rs": (lambda q, n, k: reed_solomon(Field(q), n, k), ("q", "n", "k")),
    "rep": (lambda q, n: repetition(Field(q), n), ("q", "n")),
    "full": (lambda q, n: full_code(Field(q), n), ("q", "n")),
}
_GRAPH_KINDS = {
    "product": (product_graph, ("n", "m")),
    "iterated": (iterated_graph, ("n", "m", "mp")),
    "square": (square_test_graph, ("n", "t")),
}


def _inline(text: str, kinds: dict):
    """Build an inline spec 'kind:key=value,...' through its kind's row of ``kinds``."""
    kind, _, body = text.partition(":")
    if kind.strip() not in kinds:
        raise ValueError(f"unknown spec kind in {text!r}")
    build, keys = kinds[kind.strip()]
    values = _Fields(f"spec {text!r}", parse_keys(text, body, keys))
    return build(*(values[key] for key in keys))


def parse_code_spec(text: str) -> LinearCode:
    """Parse an inline code spec, optionally raised to a tensor power."""
    text = text.strip()
    base_text, caret, power_s = text.rpartition("^")
    if caret and power_s.isdigit():
        base = parse_code_spec(base_text)
        if isinstance(base, TensorCode):
            raise ValueError("nested tensor powers are not supported")
        return tensor_power(base, int(power_s))
    if text.endswith(".json"):
        return load_code_file(text)
    kind, _, rest = text.partition(":")
    if kind.strip() == "gen":
        return load_code_file(rest)
    return _inline(text, _CODE_KINDS)


def parse_flat_code_spec(text: str) -> LinearCode:
    """Parse an inline code spec; a tensor power comes back as a flat LinearCode."""
    code = parse_code_spec(text)
    return code.as_linear_code() if isinstance(code, TensorCode) else code


def load_code_file(path: str) -> LinearCode:
    """Read a code-spec JSON file."""
    with open(path) as fh:
        doc = _Fields(f"code file {path!r}", json.load(fh))
    field = Field(doc.integer("field"))
    kind = doc.get("kind", "generator")
    if kind == "reed_solomon":
        return reed_solomon(field, doc.integer("n"), doc.integer("k"))
    if kind == "generator":
        try:
            rows = [[as_integer(v) for v in row] for row in doc["generator"]]
        except TypeError:
            raise ValueError(f"{doc.source}: generator rows must be lists of integers") from None
        return LinearCode.from_rows(field, rows)
    raise ValueError(f"unknown code kind {kind!r} in {path}")


def code_to_json_dict(code: LinearCode, kind: str = "generator") -> dict:
    doc = {"field": code.field.q, "kind": kind, "n": code.n, "k": code.k}
    if kind != "reed_solomon":
        doc["generator"] = [[int(v) for v in row] for row in code.generator]
    return doc


def parse_graph_spec(text: str) -> OrderedGraph:
    """Parse an inline graph spec or load an explicit graph file."""
    text = text.strip()
    if text.endswith(".json"):
        with open(text) as fh:
            doc = _Fields(f"graph file {text!r}", json.load(fh))
        graph = OrderedGraph.from_lists(doc.integer("n"), doc["lists"], label=text)
        if graph.m_right != doc.integer("m") or graph.t_degree != doc.integer("t"):
            raise ValueError(f"graph file {text} is inconsistent with its lists")
        return graph
    return _inline(text, _GRAPH_KINDS)


def parse_word_file(path: str, field: Field) -> Word:
    """Read a word file: a bare JSON array or a tensor-word document."""
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, list):
        return Word(field, doc)
    if isinstance(doc, dict) and isinstance(doc.get("symbols"), list):
        doc = _Fields(f"word file {path!r}", doc)
        if "field" in doc and doc.integer("field") != field.q:
            raise ValueError(
                f"word file is over GF({doc['field']}), instance over GF({field.q})"
            )
        if "shape" in doc:
            return TensorWord(field, doc["shape"], doc["symbols"])
        return Word(field, doc["symbols"])
    raise ValueError(f"unrecognized word file format in {path}")


# --- instances ------------------------------------------------------------------


def product_instance(base: LinearCode, m: int) -> TestInstance:
    """The axis tester of the m-fold power of ``base``.

    Small code: the (m-1)-fold power (flattened); full code: the m-fold power,
    kept in factor form so its codewords enumerate through messages.
    """
    if m < 2:
        raise ValueError("need m >= 2 for an axis tester")
    graph = product_graph(base.n, m)
    small = tensor_power(base, m - 1).as_linear_code() if m > 2 else base
    full = tensor_power(base, m)
    label = f"product(base=[{base.n},{base.k},{base.d_known}]q{base.field.q},m={m})"
    return TestInstance(graph, small, full=full, label=label)


def instance_from_specs(
    graph_spec: str, small_spec: str, full_spec: Optional[str] = None
) -> TestInstance:
    """Build a test instance from inline specs.

    Without an explicit full code, the Tanner product code of (graph, small)
    is derived by parity stacking when small enough; otherwise delta falls
    back to certified intervals.  An explicit full code must be a subcode of
    the Tanner product code, checked on its generator rows, a chunk of them
    at a time.
    """
    graph = parse_graph_spec(graph_spec)
    small = parse_flat_code_spec(small_spec)
    if full_spec:
        full = parse_code_spec(full_spec)
    else:
        try:
            full = tpc_linear_code(graph, small, "DERIVED_PARITY_CELLS")
        except TooLargeToEnumerateError:
            full = None
    instance = TestInstance(graph, small, full=full, label=f"{graph_spec} / {small_spec}")
    if full_spec:
        step = max(1, BROADCAST_CELLS // full.n)
        for start in range(0, full.k, step):
            rows = full.encode_batch(np.eye(min(step, full.k - start), full.k, start, dtype=np.int64))
            if not instance.contains_batch(rows).all():
                raise ValueError(
                    f"reference code {full_spec!r} is not a subcode of the Tanner product code"
                    f" of {graph_spec!r} and {small_spec!r}"
                )
    return instance


# --- configuration ---------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Everything a sweep needs; the seed pins the corpus and any sampling."""

    graph_spec: str
    small_spec: str
    full_spec: Optional[str] = None
    corpus: str = "mixed:120"
    seed: int = 0
    alpha: Fraction = Fraction(1, 2**16)
    tau: Optional[Fraction] = None
    mode: str = "exact"  # exact | sampled
    samples: int = 200


@dataclass(frozen=True)
class SweepResult:
    summary: dict
    reports: list[dict]
    violations: int
    wall_time: float

    @property
    def exit_code(self) -> int:
        return 0 if self.violations == 0 else 1

    def document(self) -> dict:
        return {"summary": self.summary, "reports": self.reports}


def _hypotheses(full) -> Optional[dict]:
    """Which distance hypotheses the instance satisfies (factor form only)."""
    if not isinstance(full, TensorCode):
        return None
    factors = full.factors
    base = factors[0]
    if any(f is not base for f in factors) or base.d_known is None:
        return None
    n, d, m = base.n, base.d_known, len(factors)
    ratio_m = Fraction(d - 1, n) ** m
    checks = {
        "base": f"[{n},{base.k},{d}] over GF({base.field.q}), m={m}",
        "product_tester": bool(ratio_m >= Fraction(7, 8)),
        "product_tester_margin": frac_str(ratio_m),
        "self_improvement": bool(Fraction(d, n) ** (m - 1) >= Fraction(7, 8)),
        "composition_step": bool(d - 1 >= (1 - Fraction(1, 10 * m)) * n),
        "family": bool(Fraction(d, n) >= 1 - Fraction(1, 7 * m)),
    }
    return checks


def run_sweep(config: ExperimentConfig, instance: Optional[TestInstance] = None) -> SweepResult:
    """Certify every corpus word at the configured alpha.

    Returns per-word reports plus a summary with the violation count and the
    empirical minimum of rho/delta over words at positive distance.
    """
    t0 = time.perf_counter()
    if instance is None:
        instance = instance_from_specs(config.graph_spec, config.small_spec, config.full_spec)
    parts = parse_corpus_spec(config.corpus)
    words = generate_corpus(instance, parts, config.seed)
    alpha = Fraction(config.alpha)
    reports = []
    violations = 0
    min_ratio: Optional[Fraction] = None
    undecided = 0
    for word, source in words:
        if config.mode == "sampled":
            est = instance.expected_robustness_sampled(word, config.seed, config.samples, source["index"])
            lower, upper, exact = instance.delta_bounds(word, None)
            fields = est.to_json_dict(alpha=frac_str(alpha), delta=frac_str(lower) if exact else None)
            reports.append({"instance": instance.label, "word_source": source, **fields})
            continue
        report, holds = instance.certify(word, alpha, tau=config.tau, word_source=source)
        if holds is False:
            violations += 1
        elif holds is None:
            undecided += 1
        if report.delta_exact and report.ratio is not None:
            min_ratio = report.ratio if min_ratio is None else min(min_ratio, report.ratio)
        reports.append(report.to_json_dict())
    wall = time.perf_counter() - t0
    summary = {
        "instance": instance.label,
        "graph": config.graph_spec,
        "small": config.small_spec,
        "full": config.full_spec,
        "corpus": config.corpus,
        "seed": config.seed,
        "mode": config.mode,
        "alpha": frac_str(alpha),
        "words": len(words),
        "violations": violations,
        "undecided": undecided,
        "min_ratio": frac_str(min_ratio) if min_ratio is not None else None,
        "min_ratio_decimal": frac_decimal(min_ratio) if min_ratio is not None else None,
        "hypotheses": _hypotheses(instance.full),
    }
    return SweepResult(summary, reports, violations, wall)


# --- composition check --------------------------------------------------------------


def _least_ratio(sums: np.ndarray, deltas: np.ndarray, graph: OrderedGraph) -> Optional[str]:
    """The least rho/delta = (sum / (m t)) / (delta / n) over deltas > 0, compared in integers."""
    best = None  # (sum, delta): the least sum at each distinct delta, cross-multiplied
    for den in (np.flatnonzero(np.bincount(deltas, minlength=1)[1:]) + 1).tolist():
        num = int(sums[deltas == den].min())
        if best is None or num * best[1] < best[0] * den:
            best = (num, den)
    entries = graph.m_right * graph.t_degree
    return None if best is None else frac_str(Fraction(best[0] * graph.n_left, best[1] * entries))


def run_compose_check(
    outer: OrderedGraph, inner: OrderedGraph, small: LinearCode, corpus: str, seed: int
) -> dict:
    """Exact two-level evaluation of the composed tester.

    For every corpus word, the expected robustness over the composed graph
    must equal the mean over outer views of the inner tester's expected
    robustness on that view; the two sides are computed along independent
    paths (composed adjacency vs outer rows followed by inner rows), each in
    one batch over the corpus.  Also reports the empirical robustness
    constants of the outer, inner, and composed testers.
    """
    t0 = time.perf_counter()
    composed = outer.compose(inner)
    medium = tpc_linear_code(inner, small)
    full = tpc_linear_code(outer, medium)
    comp_instance = TestInstance(composed, small, full=full, label="composed")
    outer_instance = TestInstance(outer, medium, full=full, label="outer")
    inner_instance = TestInstance(inner, small, full=medium, label="inner")
    values, _ = corpus_values(comp_instance, parse_corpus_spec(corpus), seed)
    views = values[:, outer.rows0_block(0, outer.m_right)].reshape(-1, outer.t_degree)
    comp_sums = comp_instance.view_hammings_batch(values).sum(axis=1)
    inner_sums = inner_instance.view_hammings_batch(views).sum(axis=1)
    inner_delta = inner_instance.delta_hammings_batch(views)
    delta = comp_instance.delta_hammings_batch(values)
    outer_sums = outer_instance.view_hammings_batch(values[delta > 0]).sum(axis=1)
    # lhs = comp_sums / (m_c t_c) must equal rhs = (the word's inner_sums) / (m_o m_i t_i)
    rhs_sums = inner_sums.reshape(len(values), outer.m_right).sum(axis=1)
    lhs_den, rhs_den = composed.m_right * composed.t_degree, outer.m_right * inner.m_right * inner.t_degree
    mismatches = int(np.count_nonzero(comp_sums * rhs_den != rhs_sums * lhs_den))
    report = {
        "outer": outer.label,
        "inner": inner.label,
        "composed": composed.label,
        "corpus": corpus,
        "seed": seed,
        "words": len(values),
        "identity_mismatches": mismatches,
        "measured_c_outer": _least_ratio(outer_sums, delta[delta > 0], outer),
        "measured_c_inner": _least_ratio(inner_sums, inner_delta, inner),
        "measured_c_composed": _least_ratio(comp_sums, delta, composed),
    }
    return {"report": report, "wall_time": time.perf_counter() - t0, "exit_code": 0 if mismatches == 0 else 1}


# --- expansion check -----------------------------------------------------------------


def _exhaustive_pairs(n: int, m: int):
    """Every (S, T) with |S| <= n/4, in chunks of at most _ROW_BLOCK row-aligned mask pairs."""
    t_width = min(2**m, _ROW_BLOCK)
    per_chunk = _ROW_BLOCK // t_width
    for s_size in range(n // 4 + 1):
        subsets = combinations(range(n), s_size)
        while group := list(islice(subsets, per_chunk)):
            s_masks = np.zeros((len(group), n), dtype=bool)
            s_masks[np.arange(len(group))[:, None], np.array(group, dtype=np.int64)] = True
            for low in range(0, 2**m, t_width):
                t_masks = (np.arange(low, low + t_width)[:, None] >> np.arange(m)) & 1 == 1
                yield np.repeat(s_masks, t_width, axis=0), np.tile(t_masks, (len(group), 1))


def run_expansion_check(
    graph: OrderedGraph,
    mode: str = "exhaustive",
    samples: int = 10**5,
    seed: int = 0,
) -> dict:
    """Boundary-expansion scan over (S, T) pairs.

    Exhaustive mode enumerates every left subset S with |S| <= n/4 and every
    right subset T; sampled mode draws seeded random pairs.  Either mode
    yields chunks of mask pairs, and one loop counts their boundaries.  The
    1/8 bound is compared in integers, as slack8 = 8 gamma - d_L |S| - d_R |T|.
    Reports the number of violations and the worst slack, slack8 / 8.
    """
    t0 = time.perf_counter()
    n, m = graph.n_left, graph.m_right
    d_l = graph.uniform_left_degree()
    d_r = graph.t_degree
    if mode == "exhaustive":
        count_s = sum(math.comb(n, s) for s in range(n // 4 + 1))
        within("EXPANSION_PAIRS", count_s * 2**m, "exhaustive expansion scan")
        chunks = _exhaustive_pairs(n, m)
    elif mode == "sampled":
        rng = np.random.default_rng(seed)
        sizes = rng.integers(0, n // 4 + 1, size=samples)
        s_masks = np.zeros((samples, n), dtype=bool)
        for i, size in enumerate(sizes):
            if size:
                s_masks[i, rng.choice(n, size=int(size), replace=False)] = True
        t_masks = rng.integers(0, 2, size=(samples, m)).astype(bool)
        starts = range(0, samples, _ROW_BLOCK)
        chunks = ((s_masks[i : i + _ROW_BLOCK], t_masks[i : i + _ROW_BLOCK]) for i in starts)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    chunk_minima = []  # the least slack8 of every chunk
    violations = 0
    checked = 0
    for s_chunk, t_chunk in chunks:
        gamma = boundary_edge_count(graph, s_chunk, t_chunk)
        slack8 = 8 * gamma - d_l * s_chunk.sum(axis=1) - d_r * t_chunk.sum(axis=1)
        checked += slack8.size
        violations += int(np.count_nonzero(slack8 < 0))
        chunk_minima.append(int(slack8.min()))
    wall = time.perf_counter() - t0
    report = {
        "graph": graph.label,
        "mode": mode,
        "seed": seed if mode == "sampled" else None,
        "pairs_checked": checked,
        "violations": violations,
        "worst_slack": frac_str(Fraction(min(chunk_minima), 8)) if chunk_minima else None,
        "left_degree": d_l,
        "right_degree": d_r,
    }
    return {"report": report, "wall_time": wall, "exit_code": 0 if violations == 0 else 1}


# --- query accounting -----------------------------------------------------------------


@dataclass(frozen=True)
class QueryAccount:
    """Query bookkeeping for the degree-n^2 recursive tester family."""

    n: int
    t: int
    alpha0: Fraction
    queries: int  # per-invocation query count = n^2
    repetitions: int  # ceil(1 / alpha0^t)
    total: int
    block_length: Optional[int]  # n^(2^t) when it fits; None otherwise
    log2_block_length: float
    polylog_exponent: float

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "alpha0": frac_str(self.alpha0),
            "queries": self.queries,
            "repetitions": str(self.repetitions),
            "total_queries": str(self.total),
            "block_length": self.block_length,
            "log2_block_length": self.log2_block_length,
            "polylog_exponent": self.polylog_exponent,
        }


def query_account(n: int, t: int, alpha0: Fraction) -> QueryAccount:
    """Exact query counts after robustness amplification, computed in log space.

    The per-invocation cost is the right degree n^2; the composed tester's
    robustness constant is alpha0^t, so ceil(1/alpha0^t) repetitions drive the
    rejection probability up to the delta/2 floor.  The polylog exponent e
    satisfies total = (log2 N)^e for block length N = n^(2^t).
    """
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    alpha0 = Fraction(alpha0)
    if not 0 < alpha0 <= 1:
        raise ValueError("alpha0 must lie in (0, 1]")
    q = n * n
    level = alpha0**t
    reps = -(-level.denominator // level.numerator)  # ceil(1/alpha0^t)
    total = q * reps
    log2_n_big = (2**t) * math.log2(n)
    block = n ** (2**t) if log2_n_big <= 62 else None
    # math.log2 takes arbitrarily large Python ints without overflow.
    polylog_exp = math.log2(total) / math.log2(log2_n_big) if log2_n_big > 1 else float("inf")
    return QueryAccount(
        n=n,
        t=t,
        alpha0=alpha0,
        queries=q,
        repetitions=reps,
        total=total,
        block_length=block,
        log2_block_length=log2_n_big,
        polylog_exponent=polylog_exp,
    )
