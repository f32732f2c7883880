from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kzbar.fields import GF, QQ, FieldMismatch, FieldSpec


def test_rational_add():
    assert QQ.scalar("1/2") + QQ.scalar("1/3") == QQ.scalar("5/6")


def test_fp_inverse():
    # 2 * 3 = 6 = 1 mod 5
    assert GF(5).scalar(2).inv() == GF(5).scalar(3)


def test_fp_reduction():
    F7 = GF(7)
    assert F7.scalar(10) == F7.scalar(3)
    assert F7.scalar(-1) == F7.scalar(6)


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        QQ.scalar(0).inv()
    with pytest.raises(ZeroDivisionError):
        GF(3).scalar(0).inv()


def test_mixed_fields_raise():
    with pytest.raises(FieldMismatch):
        QQ.scalar(1) + GF(5).scalar(1)
    with pytest.raises(FieldMismatch):
        GF(5).scalar(1) * GF(7).scalar(1)


def test_a_factor_of_one_still_meets_the_field_check():
    """vec_iaxpy and gamma multiply nothing by one, but a one from
    another field still raises."""
    from kzbar.catalog import uass_operad
    from kzbar.linalg import vec_iaxpy
    from kzbar.operads import OperadElement, single_sig

    F2, F3 = GF(2), GF(3)
    with pytest.raises(FieldMismatch):
        vec_iaxpy({}, F3.one, {"a": F2.one})
    u = {"a": F3.one}
    vec_iaxpy(u, F3.one, {"a": F3.one, "b": F3.scalar(2)})
    assert u == {"a": F3.scalar(2), "b": F3.scalar(2)}
    op = uass_operad(F3, 2)
    unit = OperadElement(op, single_sig(1), {(1,): F3.one})
    y = OperadElement(op, single_sig(2), {(2, 1): F3.one})
    got = op.gamma([unit, unit], y)
    assert (got.sig, got.vec) == (single_sig(2), {(2, 1): F3.one})
    with pytest.raises(FieldMismatch):
        op.gamma([unit, OperadElement(op, single_sig(1), {(1,): F2.one})], y)


def test_bad_characteristic():
    with pytest.raises(ValueError):
        FieldSpec("Fp", 6)
    with pytest.raises(ValueError):
        FieldSpec("Fp", 2**31 + 11)
    with pytest.raises(ValueError):
        FieldSpec("R")


def test_large_prime_accepted():
    # 2^31 - 1 is prime and in range
    F = GF(2**31 - 1)
    assert F.scalar(2).inv() * F.scalar(2) == F.one


def test_fraction_embedding_in_fp():
    # 1/2 = 3 in F_5
    assert GF(5).scalar(Fraction(1, 2)) == GF(5).scalar(3)
    with pytest.raises(ZeroDivisionError):
        GF(5).scalar(Fraction(1, 5))


fields = st.sampled_from([QQ, GF(2), GF(3), GF(5), GF(97)])


@given(fields, st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_ring_axioms(F, a, b, c):
    x, y, z = F.scalar(a), F.scalar(b), F.scalar(c)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == F.zero
    assert x * F.one == x


@given(fields, st.integers(-50, 50))
def test_inverse_law(F, a):
    x = F.scalar(a)
    if x.is_zero():
        return
    assert x * x.inv() == F.one


@pytest.mark.parametrize("F", [GF(2), GF(3), QQ], ids=str)
def test_cached_constants_match_fresh_scalars(F):
    assert F.zero is F.zero and F.one is F.one
    for const, value in ((F.zero, 0), (F.one, 1)):
        fresh = F.scalar(value)
        assert const == fresh and const.field == fresh.field == F
        assert type(const.val) is type(fresh.val)
    zero, one = F.zero, F.one
    # arithmetic hands out new scalars and leaves the cached ones alone
    results = [one + one, one - one, one * one, -one, one.inv(), one / one,
               one.scaled(5), zero + one, zero * one, -zero]
    assert all(r is not one and r is not zero for r in results)
    assert (one.val, zero.val) == (1, 0)
    assert F.one == F.scalar(1) and F.zero == F.scalar(0)


def test_field_equality_and_hash_ignore_the_constants():
    assert GF(3) == GF(3) and hash(GF(3)) == hash(GF(3))
    assert GF(3) != GF(5) and QQ != GF(2)
    assert repr(GF(3)) == "FieldSpec(kind='Fp', p=3)"
