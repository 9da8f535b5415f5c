"""Rendering and serialization of exact rationals and report files.

Rationals are authoritative; decimal strings (20 significant digits) are
duplicated next to them for human reading.  JSON output is canonical
(sorted keys, fixed separators) so identical inputs produce byte-identical
files.
"""

from __future__ import annotations

import csv
import json
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Collection, Iterable


def frac_str(fr: Fraction) -> str:
    """Canonical exact rendering: 'p/q', or just 'p' for integers."""
    fr = Fraction(fr)
    if fr.denominator == 1:
        return str(fr.numerator)
    return f"{fr.numerator}/{fr.denominator}"


def frac_decimal(fr: Fraction, digits: int = 20) -> str:
    """Decimal rendering with the given number of significant digits."""
    fr = Fraction(fr)
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(fr.numerator) / Decimal(fr.denominator))


def parse_fraction(text: str) -> Fraction:
    """Parse 'p/q', an integer, or a power like '2^-16'."""
    text = text.strip()
    if "^" in text:
        base, exp = text.split("^", 1)
        return Fraction(int(base)) ** int(exp)
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def parse_keys(text: str, body: str, keys: Collection[str]) -> dict[str, int]:
    """The 'key=value' pairs of a spec's ``body``: each key one of ``keys``, given once, with a value >= 0."""
    out = {}
    for item in filter(None, body.split(",")):
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in keys or key in out:
            raise ValueError(f"spec {text!r} {'repeats' if key in out else 'does not read'} {key!r}")
        out[key] = int(value)
        if out[key] < 0:
            raise ValueError(f"spec {text!r} gives {key!r} a negative value")
    return out


def json_bytes(obj) -> bytes:
    """Canonical JSON encoding (deterministic byte stream)."""
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")


def write_csv(path: str, rows: Iterable[dict]) -> None:
    """Flatten one report per row.  Nested dicts are JSON-encoded in place."""
    rows = list(rows)
    if not rows:
        with open(path, "w", newline="") as fh:
            fh.write("")
        return
    fields: list[str] = []
    for row in rows:
        for key in row:
            if key not in fields:
                fields.append(key)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            flat = {
                k: json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v
                for k, v in row.items()
            }
            writer.writerow(flat)
