"""One composition path: the induced differential and the free algebra
compose basis labels through the structure-constant tables.

``delta_terms`` composes each slot's splitting through
``FreeAlgebra.compose`` on raw values, which pays the crossing sign; the
oracle pays it itself through ``gamma_j`` and ``koszul_sign`` on
Scalars, and the raw terms are boxed to compare.  The suspended dual
numbers have odd labels, so they are where a wrong sign would show.
The bar differential and homotopy read the tables' raw values and build
no Scalar at all; the window complex they feed holds raw columns, so a
quotient and its homology build none either, and the bar's memos run on
key ids, so its certificates hash no tree once the trees are planned.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

import delta_oracle
from kzbar.algebras import Algebra
from kzbar.bar import BarComplex
from kzbar.catalog import augmentation_module_pair, dual_numbers_algebra, module_operad, uass_operad
from kzbar.dstructures import bar_dstructure
from kzbar.fields import GF, QQ, Scalar
from kzbar.linalg import vec_box
from kzbar.operads import Operad, single_sig
from kzbar.trees import Tree
from suspension import suspended_dual_numbers

BAR_SOURCES = {
    "suspended-F3": lambda: suspended_dual_numbers(GF(3), 4),
    "suspended-Q": lambda: suspended_dual_numbers(QQ, 4),
    "dual-F2": lambda: dual_numbers_algebra(GF(2), uass_operad(GF(2), 4)),
    "pair-Q": lambda: augmentation_module_pair(QQ, module_operad(QQ, 3)),
}


def _words(ds, max_arity: int):
    for srt in ds.operad.sorts:
        for n in range(max_arity + 1):
            for big, _ in ds.free._iter_words(n, srt):
                yield big


@pytest.mark.parametrize("source", sorted(BAR_SOURCES))
def test_delta_terms_match_the_partial_composition_oracle(source):
    ds = bar_dstructure(BAR_SOURCES[source](), 3)
    compared = nonzero = 0
    for big in _words(ds, 2):
        got = ds.delta_terms(big)
        assert vec_box(got, ds.field) == delta_oracle.delta_terms(ds, big), big
        compared += 1
        nonzero += bool(got)
    assert compared > 600 and nonzero > 600


def test_compose_ignores_the_insertion_order_of_its_inputs():
    ds = bar_dstructure(suspended_dual_numbers(QQ, 4), 3)
    free = ds.free
    words = [big for big in _words(ds, 2) if big[1]]
    one, two = [words[k:k + 6] for k in (5, 40)]
    vecs = [{w: Fraction(j + 1) for j, w in enumerate(one)},
            {w: Fraction(-2 * j - 1) for j, w in enumerate(two)}]
    backwards = [dict(reversed(list(v.items()))) for v in vecs]
    for c_name in ((1, 2), (2, 1)):
        got = free.compose(vecs, single_sig(2), c_name)
        assert len(got) > 6
        assert free.compose(backwards, single_sig(2), c_name) == got


@pytest.mark.parametrize("source", sorted(BAR_SOURCES))
def test_the_bar_kernel_builds_no_scalar(source, monkeypatch):
    """On a fresh bar complex whose basis is built, a cold d and h of
    every key construct no Scalar and read neither boxed table reader.
    Another bar complex on the same algebra fills the operad's and the
    algebra's tables first, since their rules answer in Scalars."""
    alg = BAR_SOURCES[source]()
    warm = BarComplex(alg)
    keys = warm.enumerate_basis(4)
    for key in keys:
        warm.differential_key(key)
        warm.homotopy_key(key)
    B = BarComplex(alg)
    assert B.enumerate_basis(4) == keys
    counts = Counter()

    def counting(name, owner, attr):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counting("Scalar", Scalar, "__init__")
    counting("gamma_basis", Operad, "gamma_basis")
    counting("theta_basis", Algebra, "theta_basis")
    for key in keys:
        assert B.differential_key(key) == warm.differential_key(key)
        assert B.homotopy_key(key) == warm.homotopy_key(key)
    assert counts == {}
    # the wrappers do count: the boxed edge builds Scalars
    B.differential({next(k for k in keys if B.differential_key(k)): alg.field.one})
    assert counts["Scalar"] > 0


def _counting(monkeypatch, counts: Counter, name: str, owner, attr: str,
              paused=None) -> None:
    """Count calls of owner.attr under name, except while paused[0]."""
    fn = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        if not (paused and paused[0]):
            counts[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)


@pytest.mark.parametrize("source", sorted(BAR_SOURCES))
def test_the_window_complex_builds_no_scalar_and_sorts_no_key(source, monkeypatch):
    """On a warm bar complex, a quotient window and its whole homology
    table build no Scalar and never print a tree, which a str sort of
    bar keys would."""
    B = BarComplex(BAR_SOURCES[source]())
    B.bar_quotient(4)  # fills the memos
    counts = Counter()
    _counting(monkeypatch, counts, "Scalar", Scalar, "__init__")
    _counting(monkeypatch, counts, "Tree.__repr__", Tree, "__repr__")
    quotient = B.bar_quotient(4)
    table = quotient.homology()
    assert counts == {}
    assert any(h.boundary_rank for h in table.values())
    # the wrappers do count: the boxed view and the sorted basis
    quotient.d
    quotient.basis()
    assert counts["Scalar"] > 0 and counts["Tree.__repr__"] > 0


@pytest.mark.parametrize("source", sorted(BAR_SOURCES))
def test_cold_certificates_hash_no_tree(source, monkeypatch):
    """On a bar complex whose basis is built and whose d and h memos are
    empty, the d.d and dh + hd - 1 certificates of every key call no
    Tree.__hash__ outside planning a tree, which happens once per tree
    and asks the process-wide canonical_form memo."""
    B = BarComplex(BAR_SOURCES[source]())
    keys = B.enumerate_basis(4)
    assert not B._d_memo and not B._h_memo
    counts = Counter()
    planning = [0]
    build_plan = BarComplex._build_plan

    def planned(self, t):
        planning[0] += 1
        try:
            return build_plan(self, t)
        finally:
            planning[0] -= 1

    monkeypatch.setattr(BarComplex, "_build_plan", planned)
    _counting(monkeypatch, counts, "Tree.__hash__", Tree, "__hash__", planning)
    _counting(monkeypatch, counts, "plans", BarComplex, "_build_plan")
    assert B.certificate_faults(keys) == (None, None)
    assert counts["Tree.__hash__"] == 0
    assert counts["plans"] > 0  # trees were planned on the way
    # the wrapper does count: a key as a dict key hashes its tree
    {keys[0]: 1}
    assert counts["Tree.__hash__"] == 1
