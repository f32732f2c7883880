"""The per-tree normal form against the vertex-by-vertex oracle, and the
plans it reads built once per tree.

Every term that reaches ``BarComplex._normal_form`` while the bar and
homology suites run is normalized again by ``normal_form_oracle`` on a
fresh bar complex over the same algebra, and the two must agree on the
key, the coefficient and whether the term is zero.  The inputs carry
signs: the two-sorted pair reads sorts off moved vertices, and the
suspended dual numbers have odd labels and a sign-flipping symmetric
action.  Over F2 alone no sign could show.  Random labeled planar trees
up to seven vertices, and every labeling of two equal corollas under
one root, where preorder and postorder label orders part, are compared
the same way.
"""

from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kzbar.trees as trees
import normal_form_oracle
from kzbar.bar import BarComplex
from kzbar.cli import DEFAULT_SEED, Report, _run_bar, _run_homology
from kzbar.fields import GF, QQ
from kzbar.linalg import vec_iaxpy
from kzbar.manifest import build, manifest_digest, parse_manifest
from kzbar.signs import SignWord
from kzbar.trees import Tree, assemble, enumerate_trees

from suspension import suspended_dual_numbers
from test_bar import dual_bar, exterior_bar

GOLDEN = Path(__file__).resolve().parent / "golden"


def _manifest(name: str, window: str | None = None):
    text = (GOLDEN / f"{name}.kz").read_text()
    if window is not None:
        text = "\n".join(window if line.startswith("window ") else line
                         for line in text.splitlines())
    return parse_manifest(text)


def _suites(m) -> None:
    for run in (_run_bar, _run_homology):
        rep = Report(run.__name__, manifest_digest(m), DEFAULT_SEED)
        run(m, build(m), rep)
        assert rep.ok


def _suspended(field):
    def run():
        B = BarComplex(suspended_dual_numbers(field, 4))
        one = B.field.one
        for key in B.enumerate_basis(5):
            x = {key: one}
            dx = B.differential(x)
            assert not B.differential(dx)
            unit = B.differential(B.homotopy(x))
            vec_iaxpy(unit, one, B.homotopy(dx))
            assert unit == x
        B.bar_quotient(5).homology()
    return run


RUNS = {
    "bar_w5": lambda: _suites(_manifest("bar_w5")),
    "unit_w5": lambda: _suites(_manifest("unit_w5")),
    "pair-Q-n5": lambda: _suites(_manifest("pair_q_w3", "window 5 : -1 .. 6")),
    "pair-F3-n5": lambda: _suites(_manifest("pair_f3_w2", "window 5 : -1 .. 6")),
    "suspended-dual-F3": _suspended(GF(3)),
    "suspended-dual-Q": _suspended(QQ),
}


@pytest.mark.parametrize("name", list(RUNS))
def test_the_plan_normal_form_matches_the_oracle(name, monkeypatch):
    seen = []
    normal_form = BarComplex._normal_form

    def recording(self, t, labels, w):
        hit = normal_form(self, t, labels, w)
        # the normal form names its key by the key's id
        seen.append((self.algebra, t, labels, w,
                     (self._keys[hit[0]], hit[1]) if hit else ()))
        return hit

    monkeypatch.setattr(BarComplex, "_normal_form", recording)
    RUNS[name]()
    monkeypatch.undo()
    assert seen
    fresh = {}
    for alg, t, labels, w, hit in seen:
        B = fresh.setdefault(id(alg), BarComplex(alg))
        want = normal_form_oracle.normal_form(B, t, labels, w)
        assert hit == ((want[0], want[1].val) if want else ()), (t, labels, w)


def _agrees_with_the_oracle(B, t, labels, sign=1) -> None:
    w = B.basis_word(t, labels)
    w = SignWord(sign, w.es, w.fs)
    got = B.normalize_term(t, w, labels, B.field.one)
    want = normal_form_oracle.normal_form(BarComplex(B.algebra), t, labels, w)
    assert got == ({want[0]: want[1]} if want else {})


def test_equal_shape_siblings_compare_their_labels_in_preorder():
    """Two arity-two vertices under one root: the subtree whose own label
    is least comes first, whatever its leaves are."""
    B = dual_bar(QQ, 3)
    leaf = Tree(1, (), frozenset({1}))
    corolla = assemble([leaf, leaf])
    t = assemble([corolla, corolla])
    pools = [sorted(table, key=str) for table in B._plan(t).degrees]
    for labels in product(*pools):
        _agrees_with_the_oracle(B, t, labels)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_any_labeled_planar_tree_normalizes_as_the_oracle_does(data):
    B = data.draw(st.sampled_from([lambda: dual_bar(QQ, 3),
                                   lambda: exterior_bar(GF(3), 3),
                                   lambda: BarComplex(suspended_dual_numbers(QQ, 3))]))()
    t = data.draw(st.sampled_from(enumerate_trees(data.draw(st.integers(1, 7)))))
    labels = []
    for v in range(1, t.n + 1):
        names = sorted(B._plan(t).degrees[v - 1], key=str)
        if not names:
            return
        labels.append(data.draw(st.sampled_from(names)))
    _agrees_with_the_oracle(B, t, tuple(labels), data.draw(st.sampled_from([1, -1])))


def test_bar_builds_one_plan_per_tree_and_one_canonical_form_each(monkeypatch):
    """Running bar on the w5 dual numbers builds exactly one plan per
    tree it normalizes, and each plan asks for its canonical form once,
    through the tree module's global.  canonical_form recurses through
    that global too, so only outermost calls are counted."""
    built_plans, canonical, normalized = [], [], set()
    build_plan, normal_form = BarComplex._build_plan, BarComplex._normal_form
    canonical_form = trees.canonical_form
    depth = [0]

    def counted_plan(self, t):
        built_plans.append(t)
        return build_plan(self, t)

    def counted_canonical(t):
        if not depth[0]:
            canonical.append(t)
        depth[0] += 1
        try:
            return canonical_form(t)
        finally:
            depth[0] -= 1

    def recorded(self, t, labels, w):
        normalized.add(t)
        return normal_form(self, t, labels, w)

    monkeypatch.setattr(BarComplex, "_build_plan", counted_plan)
    monkeypatch.setattr(BarComplex, "_normal_form", recorded)
    monkeypatch.setattr(trees, "canonical_form", counted_canonical)
    m = _manifest("bar_w5")
    rep = Report("bar", manifest_digest(m), DEFAULT_SEED)
    _run_bar(m, build(m), rep)
    assert rep.ok
    assert normalized
    assert len(built_plans) == len(normalized)
    assert set(built_plans) == normalized
    assert sorted(canonical, key=str) == sorted(built_plans, key=str)
