"""Seeded word corpora for robustness sweeps.

Corpus kinds
------------

* ``uniform``                 - i.i.d. uniform symbols.
* ``codeword_plus_weight``    - a random codeword of the full code with a
                                random error pattern of prescribed weight
                                ``w`` (positions without replacement, each
                                flipped to a different symbol).
* ``planted_slice``           - a random small codeword planted on one random
                                view of an otherwise uniform word; stresses
                                the regime where exactly one test looks good.
* ``low_weight``              - every word of weight at most ``wmax``
                                (deterministic enumeration, no count).
* ``codewords``               - random codewords of the full code (on-corpus
                                completeness words).
* ``mixed``                   - a reproducible battery: one third uniform, one
                                third codeword-plus-error with a ladder of
                                weights, one third planted slices.

Everything is driven by one integer seed; the same seed always yields the
same corpus in the same order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .code import LinearCode, Word
from .config import LOW_WEIGHT_WORDS
from .tensor import TensorCode
from .tester import TestInstance


@dataclass(frozen=True)
class CorpusPart:
    kind: str
    count: int
    params: dict = dc_field(default_factory=dict)


_KINDS = {"uniform", "codeword_plus_weight", "planted_slice", "low_weight", "codewords", "mixed"}


def parse_corpus_spec(text: str) -> tuple[CorpusPart, ...]:
    """Parse 'kind:count[,key=val...];kind:count...' into corpus parts."""
    parts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        head, _, tail = chunk.partition(",")
        if ":" in head:
            kind, count_s = head.split(":", 1)
            count = int(count_s)
        else:
            kind, count = head, 0
        kind = kind.strip()
        if kind not in _KINDS:
            raise ValueError(f"unknown corpus kind {kind!r} (choose from {sorted(_KINDS)})")
        params = {}
        if tail:
            for kv in tail.split(","):
                key, _, val = kv.partition("=")
                params[key.strip()] = int(val)
        parts.append(CorpusPart(kind, count, params))
    if not parts:
        raise ValueError("empty corpus specification")
    return tuple(parts)


def _random_message(rng: np.random.Generator, q: int, k: int) -> np.ndarray:
    return rng.integers(0, q, size=k, dtype=np.int64)


def _random_full_codeword(rng: np.random.Generator, instance: TestInstance) -> np.ndarray:
    full = instance.full
    if full is None:
        raise ValueError("this corpus kind needs a reference full code on the instance")
    q = instance.small.field.q
    if isinstance(full, LinearCode):
        msg = _random_message(rng, q, full.k)
        return (msg @ full.generator) % q
    assert isinstance(full, TensorCode)
    kshape = tuple(c.k for c in full.factors)
    msg = rng.integers(0, q, size=kshape, dtype=np.int64)
    return full.encode_tensor(msg).array.reshape(-1)


def _plant_errors(rng: np.random.Generator, values: np.ndarray, q: int, weight: int) -> np.ndarray:
    n = values.size
    weight = min(weight, n)
    out = values.copy()
    positions = rng.choice(n, size=weight, replace=False)
    offsets = rng.integers(1, q, size=weight, dtype=np.int64)
    out[positions] = (out[positions] + offsets) % q
    return out


def _weight_ladder(n: int) -> list[int]:
    ladder = sorted({1, max(1, n // 64), max(1, n // 16), max(1, n // 8)})
    return ladder


def _low_weight_words(q: int, n: int, wmax: int):
    total = sum(math.comb(n, w) * (q - 1) ** w for w in range(wmax + 1))
    if total > LOW_WEIGHT_WORDS:
        raise ValueError(
            f"low_weight corpus would enumerate {total} words; lower wmax"
        )
    for w in range(wmax + 1):
        for positions in itertools.combinations(range(n), w):
            for symbols in itertools.product(range(1, q), repeat=w):
                values = np.zeros(n, dtype=np.int64)
                for p, s in zip(positions, symbols):
                    values[p] = s
                yield values


def generate_corpus(
    instance: TestInstance, parts: tuple[CorpusPart, ...], seed: int
) -> list[tuple[Word, dict]]:
    """Materialize the corpus as (word, source-description) pairs."""
    rng = np.random.default_rng(seed)
    field = instance.small.field
    out: list[tuple[Word, dict]] = []

    def emit(values: np.ndarray, source: dict) -> None:
        out.append((Word(field, values), source))

    for part in parts:
        if part.kind == "mixed":
            third = part.count // 3
            expanded = (
                CorpusPart("uniform", third),
                CorpusPart("codeword_plus_weight", third, dict(part.params)),
                CorpusPart("planted_slice", part.count - 2 * third),
            )
            for sub in expanded:
                _generate_part(instance, sub, rng, emit)
        else:
            _generate_part(instance, part, rng, emit)
    for i, (_, source) in enumerate(out):
        source["index"] = i
    return out


def _generate_part(instance, part: CorpusPart, rng, emit) -> None:
    field = instance.small.field
    q = field.q
    n = instance.graph.n_left
    if part.kind == "uniform":
        for values in rng.integers(0, q, size=(part.count, n), dtype=np.int64):
            emit(values, {"kind": "uniform"})
    elif part.kind == "codewords":
        for _ in range(part.count):
            emit(_random_full_codeword(rng, instance), {"kind": "codewords"})
    elif part.kind == "codeword_plus_weight":
        ladder = (
            [part.params["w"]] if "w" in part.params else _weight_ladder(n)
        )
        for i in range(part.count):
            w = ladder[i % len(ladder)]
            base = _random_full_codeword(rng, instance)
            emit(
                _plant_errors(rng, base, q, w),
                {"kind": "codeword_plus_weight", "w": w},
            )
    elif part.kind == "planted_slice":
        small = instance.small
        for _ in range(part.count):
            values = rng.integers(0, q, size=n, dtype=np.int64)
            j0 = int(rng.integers(0, instance.graph.m_right))
            msg = _random_message(rng, q, small.k)
            codeword = (msg @ small.generator) % q
            values[instance.graph.row0(j0)] = codeword
            emit(values, {"kind": "planted_slice", "view": j0 + 1})
    elif part.kind == "low_weight":
        wmax = part.params.get("wmax", 2)
        for values in _low_weight_words(q, n, wmax):
            emit(values, {"kind": "low_weight", "wmax": wmax})
    else:  # pragma: no cover - guarded by the parser
        raise ValueError(f"unknown corpus kind {part.kind!r}")
