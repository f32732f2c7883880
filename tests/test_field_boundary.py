"""The field check at the edge of the structure-constant tables.

The operad and algebra tables hold raw values, so the field of a
coefficient is checked where it enters: when gamma_rule or theta_rule
fills an entry, and when a boxed input is unboxed.  A rule that answers
in another field raises FieldMismatch on the first read of that entry,
through every reader, and again on every later read, since nothing is
stored.
"""

import pytest

from kzbar.algebras import verify_algebra
from kzbar.catalog import dual_numbers_algebra, uass_operad
from kzbar.fields import GF, FieldMismatch
from kzbar.operads import single_sig, verify_operad

F3, F5 = GF(3), GF(5)
ID2 = (1, 2)


def foreign_gamma():
    """uAss over F3 whose rule composes into the word (1, 2) over F5."""
    op = uass_operad(F3, 3)
    honest = op._gamma_rule

    def rule(y_sig, y_name, xs):
        vec = honest(y_sig, y_name, xs)
        if y_name == ID2:
            return {k: F5.scalar(c.val) for k, c in vec.items()}
        return vec

    op._gamma_rule = rule
    return op


def foreign_theta(op=None):
    """The dual numbers over F3 whose word (1, 2) acts over F5."""
    alg = dual_numbers_algebra(F3, op or uass_operad(F3, 3))
    honest = alg._theta_rule

    def rule(c_sig, c_name, xs):
        vec = honest(c_sig, c_name, xs)
        if c_name == ID2:
            return {k: F5.scalar(c.val) for k, c in vec.items()}
        return vec

    alg._theta_rule = rule
    return alg


def _raises_twice(read):
    for _ in range(2):
        with pytest.raises(FieldMismatch):
            read()


def test_gamma_basis_raises_on_a_foreign_coefficient():
    op = foreign_gamma()
    unit = (single_sig(1), (1,))
    _raises_twice(lambda: op.gamma_basis(single_sig(2), ID2, (unit, unit)))
    assert op._gamma_memo == {}


def test_gamma_raises_on_a_foreign_coefficient():
    op = foreign_gamma()
    y = op.basis_element(single_sig(2), ID2)
    _raises_twice(lambda: op.gamma([op.unit(), op.unit()], y))
    # a composite the foreign entry does not reach still reads
    assert op.gamma([op.unit()], op.unit()).vec == {(1,): F3.one}


def test_verify_operad_raises_on_a_foreign_coefficient():
    _raises_twice(lambda: verify_operad(foreign_gamma()))


def test_theta_eval_raises_on_a_foreign_coefficient():
    alg = foreign_theta()
    c = alg.operad.basis_element(single_sig(2), ID2)
    xs = [alg.basis_element("*", "1"), alg.basis_element("*", "x")]
    _raises_twice(lambda: alg.theta_eval(xs, c))
    assert alg._theta_memo == {}


def test_verify_algebra_raises_on_a_foreign_coefficient():
    _raises_twice(lambda: verify_algebra(foreign_theta()))
    # the composition axiom reads the operad's table too
    _raises_twice(lambda: verify_algebra(dual_numbers_algebra(F3, foreign_gamma())))


def test_the_inputs_are_checked_once_unboxed():
    alg = dual_numbers_algebra(F3, uass_operad(F3, 3))
    op = alg.operad
    c = op.basis_element(single_sig(2), ID2)
    one, x = alg.basis_element("*", "1"), alg.basis_element("*", "x")
    assert alg.theta_eval([one, x], c).vec == {"x": F3.one}
    foreign_x = alg.basis_element("*", "x")
    foreign_x.vec = {"x": F5.one}
    with pytest.raises(FieldMismatch):
        alg.theta_eval([one, foreign_x], c)
    foreign_c = op.basis_element(single_sig(2), ID2)
    foreign_c.vec = {ID2: F5.one}
    with pytest.raises(FieldMismatch):
        alg.theta_eval([one, x], foreign_c)
    with pytest.raises(FieldMismatch):
        op.gamma([op.unit(), op.unit()], foreign_c)
