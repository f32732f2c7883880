"""The axiom certificates against their one-composition-per-instance
oracle: equal check counts and identical failure lists, text and order,
on the stock operads and algebras, on the suspension of uAss with its
odd labels, and on deliberately broken ones."""

import pytest

import axiom_oracle
from kzbar.algebras import Algebra, free, free_as_algebra, verify_algebra
from kzbar.catalog import algebra_as_operad, ass_operad, uass_operad, word_algebra
from kzbar.complexes import ChainComplex
from kzbar.fields import GF, QQ
from kzbar.operads import verify_operad

from suspension import suspended_dual_numbers, suspended_uass
from test_algebras import STOCK_ALGEBRAS
from test_operads import STOCK_OPERADS, crooked_ass, dg_operad, lazy_sym_ass


F3 = GF(3)

GOLDEN_MULT = {("1", "1"): {"1": QQ.one}, ("1", "x"): {"x": QQ.one},
               ("x", "1"): {"x": QQ.one}, ("x", "x"): {"1": QQ.one, "x": QQ.one}}


def golden_operad():
    """Q[x]/(x^2 - x - 1) in arity 1, whose composites x.x have two terms."""
    return algebra_as_operad(QQ, degrees={"1": 0, "x": 0}, mult=GOLDEN_MULT,
                             unit_name="1")


def golden_module():
    """Q[x]/(x^2 - x - 1) acting on itself from the right."""
    return Algebra(golden_operad(), {"*": ChainComplex(QQ, {"1": 0, "x": 0}, {})},
                   lambda c_sig, c_name, xs: GOLDEN_MULT[(xs[0], c_name)])


def wrong_d_operad():
    """x idempotent with x.e = e but e.x = 0, and d(e) = x: associative,
    but d is not a derivation, since d(e.x) = 0 while d(e).x = x."""
    one = QQ.one
    return algebra_as_operad(
        QQ, degrees={"1": 0, "e": 1, "x": 0},
        mult={("1", "1"): {"1": one}, ("1", "e"): {"e": one},
              ("e", "1"): {"e": one}, ("1", "x"): {"x": one},
              ("x", "1"): {"x": one}, ("x", "x"): {"x": one},
              ("x", "e"): {"e": one}},
        unit_name="1", d={"e": {"x": one}})


def crooked_block():
    """uAss whose gamma((1,), (1, 2); (2, 1)) is doubled.  In the
    associativity triple y = (1, 2), xs = ((2, 1), (1,)),
    zs = ((1,), (1, 2), ()) it is the block composition of the first
    slot, and nothing else in that triple reads it."""
    op = uass_operad(QQ, 3)
    honest = op._gamma_rule

    def crooked(y_sig, y_name, xs):
        vec = honest(y_sig, y_name, xs)
        if y_name == (2, 1) and tuple(n for _, n in xs) == ((1,), (1, 2)):
            return {k: c.scaled(2) for k, c in vec.items()}
        return vec

    op._gamma_rule = crooked
    return op


def scaled_block_f3():
    """uAss over F3 whose gamma((1,), (1, 2); (2, 1)) is scaled by 2, so
    the raw residues differ from the honest ones by a sign mod 3."""
    op = uass_operad(F3, 3)
    honest = op._gamma_rule

    def scaled(y_sig, y_name, xs):
        vec = honest(y_sig, y_name, xs)
        if y_name == (2, 1) and tuple(n for _, n in xs) == ((1,), (1, 2)):
            return {k: c.scaled(2) for k, c in vec.items()}
        return vec

    op._gamma_rule = scaled
    return op


def cancelling_f3():
    """uAss over F3 whose gamma((1,), (1,); (1, 2)) is (1, 2) + 2 (2, 1).
    Composing it with zs = ((), (1,)) sends both words to (1,), where the
    two terms cancel mod 3."""
    op = uass_operad(F3, 3)
    honest = op._gamma_rule

    def cancelling(y_sig, y_name, xs):
        if y_name == (1, 2) and tuple(n for _, n in xs) == ((1,), (1,)):
            return {(1, 2): F3.one, (2, 1): F3.scalar(2)}
        return honest(y_sig, y_name, xs)

    op._gamma_rule = cancelling
    return op


def unsigned_suspension():
    """The suspension of uAss over F3 composing by the bare splice, which
    breaks associativity once odd labels cross."""
    op = suspended_uass(F3, 3)
    op._gamma_rule = uass_operad(F3, 3)._gamma_rule
    return op


BROKEN_OPERADS = {
    "crooked-mid": lambda: crooked_ass(4),
    "crooked-block": crooked_block,
    "lazy-sym": lazy_sym_ass,
    "wrong-d": wrong_d_operad,
    "unsigned-suspension": unsigned_suspension,
    "scaled-block-F3": scaled_block_f3,
    "cancelling-F3": cancelling_f3,
}
SUSPENDED_OPERADS = {"suspended-uAss-F3": lambda: suspended_uass(F3, 3),
                     "suspended-uAss-Q": lambda: suspended_uass(QQ, 3)}


@pytest.mark.parametrize(
    "make",
    list(STOCK_OPERADS.values()) + [dg_operad, golden_operad]
    + list(SUSPENDED_OPERADS.values()) + list(BROKEN_OPERADS.values()),
    ids=list(STOCK_OPERADS) + ["dg-Q", "golden-Q"] + list(SUSPENDED_OPERADS)
    + list(BROKEN_OPERADS))
def test_verify_operad_matches_the_oracle(make):
    # each side gets its own operad, so neither reads the other's memos
    got, want = verify_operad(make()), axiom_oracle.verify_operad(make())
    assert got.checks_run == want.checks_run
    assert got.failures == want.failures
    assert got.certificate_note == want.certificate_note


@pytest.mark.parametrize("name", list(BROKEN_OPERADS))
def test_every_broken_operad_fails(name):
    assert not verify_operad(BROKEN_OPERADS[name]()).ok


def test_a_crooked_block_composition_fails_associativity():
    failures = verify_operad(crooked_block()).failures
    assert ("associativity fails: y=(('*', '*'), '*'):(1, 2) "
            "xs=[(2, 1), (1,)] zs=[(1,), (1, 2), ()]") in failures


def broken_product():
    op = uass_operad(QQ, 3)
    return word_algebra(
        QQ, op, degrees={"1": 0, "x": 0},
        mult={("1", "1"): {"1": QQ.one}, ("1", "x"): {"x": QQ.scalar(2)},
              ("x", "1"): {"x": QQ.one}},
        unit_name="1")


def broken_product_f3():
    """The dual numbers over uAss and F3 with 1.x = 2x."""
    return word_algebra(
        F3, uass_operad(F3, 3), degrees={"1": 0, "x": 0},
        mult={("1", "1"): {"1": F3.one}, ("1", "x"): {"x": F3.scalar(2)},
              ("x", "1"): {"x": F3.one}},
        unit_name="1")


def unsigned_suspended_dual():
    """The suspended dual numbers over F3 acting by the bare product, which
    breaks the composition axiom's Koszul sign."""
    alg = suspended_dual_numbers(F3)
    alg._theta_rule = lambda c_sig, c_name, xs: (
        {} if xs.count("x") > 1 else {"x" if "x" in xs else "1": F3.one})
    return alg


EXTRA_ALGEBRAS = {
    "free-uAss-Q": lambda: free_as_algebra(
        free(ChainComplex(QQ, {"g": 0}, {}), uass_operad(QQ, 3))),
    # theta past arity 2 raises CapExceeded, which skips the instance
    "free-uAss-Q-parts2": lambda: free_as_algebra(
        free(ChainComplex(QQ, {"g": 1}, {}), uass_operad(QQ, 3)), parts_cap=2),
    "free-Ass-F2": lambda: free_as_algebra(
        free(ChainComplex(GF(2), {"u": 0, "v": 0}, {}), ass_operad(GF(2), 2))),
    "golden-module": golden_module,
    "broken-product": broken_product,
    "broken-product-F3": broken_product_f3,
    "suspended-dual-F3": lambda: suspended_dual_numbers(F3),
    "suspended-dual-Q": lambda: suspended_dual_numbers(QQ),
    "unsigned-suspended-dual": unsigned_suspended_dual,
}


@pytest.mark.parametrize(
    "make", list(STOCK_ALGEBRAS.values()) + list(EXTRA_ALGEBRAS.values()),
    ids=list(STOCK_ALGEBRAS) + list(EXTRA_ALGEBRAS))
def test_verify_algebra_matches_the_oracle(make):
    got, want = verify_algebra(make()), axiom_oracle.verify_algebra(make())
    assert got.checks_run == want.checks_run
    assert got.failures == want.failures


def test_a_broken_product_fails_composition():
    for make in (broken_product, broken_product_f3):
        assert any(f.startswith("composition fails")
                   for f in verify_algebra(make()).failures), make.__name__


def test_the_cancelling_composite_cancels():
    """The triple y = (1, 2), xs = ((1,), (1,)), zs = ((), (1,)) reads the
    two-term composite, whose terms cancel mod 3 on one side only."""
    assert ("associativity fails: y=(('*', '*'), '*'):(1, 2) "
            "xs=[(1,), (1,)] zs=[(), (1,)]") in verify_operad(cancelling_f3()).failures


@pytest.mark.parametrize("field", [F3, QQ], ids=["F3", "Q"])
def test_the_suspension_passes_both_certificates(field):
    """Binary labels are odd and the carrier is odd, so the composition
    axiom needs the Koszul sign of moving each label past the later
    factors, and associativity the sign of moving each x past the later
    blocks."""
    assert verify_operad(suspended_uass(field, 3)).ok
    assert verify_algebra(suspended_dual_numbers(field)).ok


def test_dropping_a_suspension_sign_fails():
    assert any(f.startswith("associativity fails")
               for f in verify_operad(unsigned_suspension()).failures)
    assert any(f.startswith("composition fails")
               for f in verify_algebra(unsigned_suspended_dual()).failures)
