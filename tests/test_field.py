import pytest
from hypothesis import given
from hypothesis import strategies as st

from ltclab.errors import FieldMismatchError, ModulusTooLargeError, NotPrimeError
from ltclab.field import Field

from conftest import SMALL_PRIMES


def test_smallest_field():
    assert Field(2).q == 2


def test_prime_accepted():
    assert Field(31).q == 31


def test_composite_rejected():
    with pytest.raises(NotPrimeError):
        Field(6)


@pytest.mark.parametrize("q", [0, 1, 4, 9, 15, 2**15])
def test_non_primes_rejected(q):
    with pytest.raises(NotPrimeError):
        Field(q)


def test_too_large_rejected():
    # 65537 is prime but above the supported range.
    with pytest.raises(ModulusTooLargeError):
        Field(65537)


def test_largest_supported_prime():
    assert Field(65521).q == 65521


def test_mul_example():
    f = Field(7)
    assert f.element(3) * f.element(5) == f.element(1)


def test_inv_example():
    f = Field(7)
    assert f.element(3).inv() == f.element(5)


def test_characteristic_two():
    f = Field(2)
    assert f.element(1) + f.element(1) == f.element(0)


def test_division_by_zero():
    f = Field(5)
    with pytest.raises(ZeroDivisionError):
        f.element(3) / f.element(0)
    with pytest.raises(ZeroDivisionError):
        f.element(0).inv()


def test_field_mismatch_rejected():
    a = Field(5).element(2)
    b = Field(7).element(2)
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        a * b


def test_negative_exponent():
    f = Field(11)
    a = f.element(4)
    assert a ** (-1) == a.inv()
    assert a ** (-3) == (a.inv()) ** 3


def test_int_coercion_in_ops():
    f = Field(13)
    assert f.element(5) + 10 == f.element(2)
    assert 3 * f.element(6) == f.element(5)


@pytest.mark.parametrize("q", SMALL_PRIMES)
def test_axioms_exhaustive(q):
    """Associativity, commutativity, distributivity over every triple."""
    f = Field(q)
    elems = [f.element(v) for v in range(q)]
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("q", SMALL_PRIMES)
def test_inverse_involution_and_fermat(q):
    f = Field(q)
    for v in range(1, q):
        a = f.element(v)
        assert a.inv().inv() == a
        assert a ** (q - 1) == f.one
        assert a * a.inv() == f.one


@given(
    q=st.sampled_from([17, 101, 65521]),
    x=st.integers(min_value=0, max_value=2**16),
    y=st.integers(min_value=0, max_value=2**16),
    z=st.integers(min_value=0, max_value=2**16),
)
def test_axioms_sampled_large_fields(q, x, y, z):
    f = Field(q)
    a, b, c = f.element(x), f.element(y), f.element(z)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if b.value != 0:
        assert (a / b) * b == a


def test_subtraction_division_and_conversions():
    f = Field(7)
    a, b = f.element(3), f.element(5)
    assert a - b == f.element(5)
    assert 2 - a == f.element(6)
    assert 2 / a == f.element(3)  # 2 * 5, as 3 * 5 = 1 mod 7
    assert -a == f.element(4)
    assert a == 3 + 7 and a != 4 and a != "3"
    assert hash(a) == hash(f.element(10))
    assert a and not f.element(0)
    assert int(a) == 3
    assert repr(a) == "3 (mod 7)"


@pytest.mark.parametrize(
    "op",
    [
        lambda a: a + "x",
        lambda a: "x" - a,
        lambda a: a * 1.5,
        lambda a: a / "x",
        lambda a: a ** 1.5,
    ],
    ids=["add", "rsub", "mul", "truediv", "pow"],
)
def test_an_operand_that_is_not_an_integer_raises_type_error(op):
    with pytest.raises(TypeError):
        op(Field(7).element(3))


def test_a_field_and_its_elements_are_immutable_and_equal_fields_hash_equal():
    f, a = Field(7), Field(7).element(3)
    with pytest.raises(AttributeError, match="^Field is immutable$"):
        f.q = 11
    with pytest.raises(AttributeError, match="^FieldElement is immutable$"):
        a.value = 4
    assert f.q == 7 and a.value == 3
    assert Field(7) == f and hash(Field(7)) == hash(f) and len({Field(7), f, Field(5)}) == 2
