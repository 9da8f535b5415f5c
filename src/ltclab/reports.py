"""Rendering and serialization of exact rationals and report files.

Rationals are authoritative; decimal strings (20 significant digits) are
duplicated next to them for human reading.  JSON output is canonical
(sorted keys, fixed separators) so identical inputs produce byte-identical
files.
"""

from __future__ import annotations

import csv
import json
from decimal import Context, Decimal
from fractions import Fraction
from typing import Collection, Iterable

from .errors import PRINTABLE_BITS


def frac_str(fr: Fraction) -> str:
    """Canonical exact rendering: 'p/q', or just 'p' for integers."""
    fr = Fraction(fr)
    if fr.denominator == 1:
        return str(fr.numerator)
    return f"{fr.numerator}/{fr.denominator}"


# One context for every rendering: entering a local context per call costs half again the division.
_DECIMAL = Context(prec=20)


def frac_decimal(fr: Fraction) -> str:
    """Decimal rendering with 20 significant digits."""
    fr = Fraction(fr)
    return str(_DECIMAL.divide(Decimal(fr.numerator), Decimal(fr.denominator)))


def parse_fraction(text: str) -> Fraction:
    """Parse 'p/q', an integer, or a power 'b^e' like '2^-16'.

    Refuses other text, a zero denominator, and a power whose |e| * bitlength(|b|) is past
    PRINTABLE_BITS, before computing it.
    """
    text = text.strip()
    sep = "^" if "^" in text else "/"
    head, found, tail = text.partition(sep)
    try:
        a, b = int(head), (int(tail) if found else 1)
    except ValueError:
        raise ValueError(f"cannot read {text!r} as a fraction: give p/q, an integer or b^e") from None
    if sep == "^":
        if abs(a) >= 2 and abs(b) * abs(a).bit_length() > PRINTABLE_BITS:
            raise ValueError(f"power {text!r} is past {PRINTABLE_BITS} bits")
        a, b = (a**b, 1) if b >= 0 else (1, a**-b)
    if b == 0:
        raise ValueError(f"fraction {text!r} has a zero denominator")
    return Fraction(a, b)


def parse_int(text: str, what: str) -> int:
    """``text`` as an integer, or a usage error that says ``what`` it must be and quotes the text."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what}, got {text!r}") from None


def parse_keys(text: str, body: str, keys: Collection[str]) -> dict[str, int]:
    """The 'key=value' pairs of a spec's ``body``: each key one of ``keys``, given once, with a value >= 0."""
    out = {}
    for item in filter(None, body.split(",")):
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in keys or key in out:
            raise ValueError(f"spec {text!r} {'repeats' if key in out else 'does not read'} {key!r}")
        out[key] = parse_int(value, f"spec {text!r} must give {key!r} an integer")
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
