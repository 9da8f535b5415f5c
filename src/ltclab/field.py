"""Exact arithmetic in prime fields GF(q).

The alphabet of every code in this package is a prime field.  Elements are
integer residues in ``[0, q)``; products widen to Python integers before
reduction, so all results are exact for any supported modulus (no lookup
tables, no floating point).
"""

from __future__ import annotations

from .errors import FieldMismatchError, ModulusTooLargeError, NotPrimeError

MAX_MODULUS = 2**16


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


class Field:
    """The prime field GF(q), ``2 <= q <= 2**16``.

    Immutable after construction; safe to share across threads.
    """

    __slots__ = ("q",)

    def __init__(self, q: int):
        if not isinstance(q, int) or isinstance(q, bool):
            raise TypeError(f"modulus must be an integer, got {type(q).__name__}")
        if q > MAX_MODULUS:
            raise ModulusTooLargeError(
                f"modulus {q} exceeds the supported maximum {MAX_MODULUS}"
            )
        if not _is_prime(q):
            raise NotPrimeError(f"modulus {q} is not prime")
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    def element(self, value: int) -> "FieldElement":
        """Wrap an integer as a field element, reducing it mod q."""
        return FieldElement(self, value % self.q)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def inv(self, value: int) -> int:
        """Integer-level multiplicative inverse mod q."""
        value %= self.q
        if value == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return pow(value, self.q - 2, self.q)

    def __eq__(self, other):
        return isinstance(other, Field) and self.q == other.q

    def __hash__(self):
        return hash(("Field", self.q))

    def __repr__(self):
        return f"GF({self.q})"


def _operator(combine):
    """A binary operator of FieldElement: the element combine(field, a, b) mod q.

    ``a`` is the element's residue and ``b`` the operand's.  The operand is an
    element of the same field (one of another field is a FieldMismatchError)
    or an int; any other operand gets NotImplemented.
    """

    def op(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatchError(f"operands from {self.field} and {other.field}")
            b = other.value
        elif isinstance(other, int) and not isinstance(other, bool):
            b = other % self.field.q
        else:
            return NotImplemented
        return FieldElement(self.field, combine(self.field, self.value, b) % self.field.q)

    return op


class FieldElement:
    """An element of a prime field; arithmetic rejects mixed-field operands."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value: int):
        if not 0 <= value < field.q:
            raise ValueError(f"value {value} not in [0, {field.q})")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    __add__ = __radd__ = _operator(lambda f, a, b: a + b)
    __sub__ = _operator(lambda f, a, b: a - b)
    __rsub__ = _operator(lambda f, a, b: b - a)
    __mul__ = __rmul__ = _operator(lambda f, a, b: a * b)
    __truediv__ = _operator(lambda f, a, b: a * f.inv(b))
    __rtruediv__ = _operator(lambda f, a, b: b * f.inv(a))

    def __neg__(self):
        return FieldElement(self.field, (-self.value) % self.field.q)

    def inv(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.value))

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        q = self.field.q
        if e < 0:
            return FieldElement(self.field, pow(self.field.inv(self.value), -e, q))
        return FieldElement(self.field, pow(self.value, e, q))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        if isinstance(other, int) and not isinstance(other, bool):
            return self.value == other % self.field.q
        return NotImplemented

    def __hash__(self):
        return hash((self.field.q, self.value))

    def __bool__(self):
        return self.value != 0

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"{self.value} (mod {self.field.q})"
