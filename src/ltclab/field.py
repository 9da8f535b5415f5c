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

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatchError(
                    f"operands from {self.field} and {other.field}"
                )
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return self.field.element(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, (self.value + o.value) % self.field.q)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, (self.value - o.value) % self.field.q)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, (self.value * o.value) % self.field.q)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

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
