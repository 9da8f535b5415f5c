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

from .code import Word, symbol_dtype
from .config import LOW_WEIGHT_WORDS
from .reports import parse_keys
from .tester import TestInstance


@dataclass(frozen=True)
class CorpusPart:
    kind: str
    count: int
    params: dict = dc_field(default_factory=dict)


# int64 symbols per draw of a uniform part.
_DRAW_SYMBOLS = 1 << 16

_KINDS = {"uniform", "codeword_plus_weight", "planted_slice", "low_weight", "codewords", "mixed"}
# The keys each kind reads; the other kinds read none.
_KEYS = {"codeword_plus_weight": {"w"}, "mixed": {"w"}, "low_weight": {"wmax"}}


def parse_corpus_spec(text: str) -> tuple[CorpusPart, ...]:
    """Parse 'kind:count[,key=val...];low_weight[,wmax=val]' into parts; low_weight counts its own words."""
    parts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        head, _, tail = chunk.partition(",")
        kind, colon, count_s = head.partition(":")
        kind = kind.strip()
        if kind not in _KINDS:
            raise ValueError(f"unknown corpus kind {kind!r} (choose from {sorted(_KINDS)})")
        if bool(colon) == (kind == "low_weight"):
            raise ValueError(f"corpus kind {kind!r} {'takes no' if colon else 'needs a'} count")
        params = parse_keys(chunk, tail, _KEYS.get(kind, ()))
        count = int(count_s) if colon else 0
        if count < 0:
            raise ValueError(f"corpus part {chunk!r} has a negative count")
        parts.append(CorpusPart(kind, count, params))
    if not parts:
        raise ValueError("empty corpus specification")
    return tuple(parts)


def _weight_ladder(n: int) -> list[int]:
    ladder = sorted({1, max(1, n // 64), max(1, n // 16), max(1, n // 8)})
    return ladder


def _expand(part: CorpusPart, q: int, n: int) -> tuple[CorpusPart, ...]:
    """A part as parts of known word counts: a mixed part in thirds, a low_weight part counted."""
    if part.kind == "mixed":
        third = part.count // 3
        return (
            CorpusPart("uniform", third),
            CorpusPart("codeword_plus_weight", third, dict(part.params)),
            CorpusPart("planted_slice", part.count - 2 * third),
        )
    if part.kind == "low_weight":
        wmax = part.params.get("wmax", 2)
        total = sum(math.comb(n, w) * (q - 1) ** w for w in range(wmax + 1))
        if total > LOW_WEIGHT_WORDS:
            raise ValueError(f"low_weight corpus would enumerate {total} words; lower wmax")
        return (CorpusPart("low_weight", total, {"wmax": wmax}),)
    return (part,)


def corpus_values(
    instance: TestInstance, parts: tuple[CorpusPart, ...], seed: int
) -> tuple[np.ndarray, list[dict]]:
    """The corpus as one (B, n_left) symbol_dtype array and its B source descriptions."""
    field, n = instance.small.field, instance.graph.n_left
    plan = [sub for part in parts for sub in _expand(part, field.q, n)]
    values = np.empty((sum(sub.count for sub in plan), n), dtype=symbol_dtype(field))
    rng = np.random.default_rng(seed)
    sources: list[dict] = []
    for sub in plan:
        sources += _fill_part(instance, sub, rng, values[len(sources) : len(sources) + sub.count])
    for i, source in enumerate(sources):
        source["index"] = i
    return values, sources


def generate_corpus(
    instance: TestInstance, parts: tuple[CorpusPart, ...], seed: int
) -> list[tuple[Word, dict]]:
    """Materialize the corpus as (word, source-description) pairs."""
    values, sources = corpus_values(instance, parts, seed)
    field = instance.small.field
    return [(Word(field, row), source) for row, source in zip(values, sources)]


def _fill_part(instance: TestInstance, part: CorpusPart, rng, out: np.ndarray) -> list[dict]:
    """Write the part's words into the (count, n) array ``out``; return their sources."""
    q = instance.small.field.q
    count, n = out.shape
    if count == 0:
        return []
    if part.kind == "uniform":
        # Drawn a few rows at a time: the int64 draw is eight times the symbols,
        # and row chunks give the same stream as one (count, n) draw.
        step = max(1, _DRAW_SYMBOLS // n)
        for s in range(0, count, step):
            out[s : s + step] = rng.integers(0, q, size=out[s : s + step].shape, dtype=np.int64)
        return [{"kind": "uniform"} for _ in range(count)]
    if part.kind == "low_weight":
        out[...] = 0
        r = 0
        for w in range(part.params["wmax"] + 1):
            # word r + i * len(symbols) + j holds symbols[j] at positions[i]
            positions = np.array(list(itertools.combinations(range(n), w)), dtype=np.int64)
            symbols = np.array(list(itertools.product(range(1, q), repeat=w)), dtype=out.dtype)
            c, s = math.comb(n, w), (q - 1) ** w
            out[r + np.arange(c * s).reshape(c, s, 1), positions.reshape(c, 1, w)] = symbols.reshape(1, s, w)
            r += c * s
        return [{"kind": "low_weight", "wmax": part.params["wmax"]} for _ in range(count)]
    if part.kind == "planted_slice":
        small, sources = instance.small, []
        for row in out:
            row[...] = rng.integers(0, q, size=n, dtype=np.int64)
            j0 = int(rng.integers(0, instance.graph.m_right))
            message = rng.integers(0, q, size=(1, small.k), dtype=np.int64)
            row[instance.graph.row0(j0)] = small.encode_batch(message)[0]
            sources.append({"kind": "planted_slice", "view": j0 + 1})
        return sources
    # codewords, and codeword_plus_weight: random codewords of the full code, plus w errors
    full = instance.full
    if full is None:
        raise ValueError("this corpus kind needs a reference full code on the instance")
    ladder = [part.params["w"]] if "w" in part.params else _weight_ladder(n)
    sources = []
    for i, row in enumerate(out):
        row[...] = full.encode_batch(rng.integers(0, q, size=(1, full.k), dtype=np.int64))[0]
        if part.kind == "codewords":
            sources.append({"kind": "codewords"})
            continue
        w = ladder[i % len(ladder)]
        positions = rng.choice(n, size=min(w, n), replace=False)
        row[positions] = (row[positions] + rng.integers(1, q, size=positions.size, dtype=np.int64)) % q
        sources.append({"kind": "codeword_plus_weight", "w": w})
    return sources
