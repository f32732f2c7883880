"""The bar layer's memos against fresh computation.

A ``BarComplex`` memoizes the normal form of each raw term, the
equal-sibling orbit minimum of each vertex label, the contraction plan of
each (tree, word), and d and h of each key, and builds its basis from the
sibling-sorted labelings alone.  Every memoized result must equal what a
fresh bar complex computes for the same call, and the basis must equal,
keys and order, the one ``basis_oracle.full_basis`` gets by normalizing
every label combination.
"""

from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import basis_oracle
import kzbar.bar as bar
from kzbar.bar import BarComplex
from kzbar.cli import DEFAULT_SEED, Report, _run_bar
from kzbar.fields import GF, QQ
from kzbar.manifest import build, manifest_digest, parse_manifest
from kzbar.signs import SignWord
from kzbar.trees import enumerate_trees

from suspension import suspended_dual_numbers
from test_bar import com_line_bar, dual_bar, exterior_bar, module_bar

F2, F3 = GF(2), GF(3)
GOLDEN = Path(__file__).resolve().parent / "golden"


def pair_bar():
    text = (GOLDEN / "pair_q_w3.kz").read_text()
    return build(parse_manifest(text)).algebras["pair"].bar


BARS = {
    "dual-F2": lambda: dual_bar(F2),
    "dual-F3": lambda: dual_bar(F3),
    "dual-Q": lambda: dual_bar(QQ),
    "pair-Q": pair_bar,
    "exterior-F3": lambda: exterior_bar(F3),
    "suspended-dual-Q": lambda: BarComplex(suspended_dual_numbers(QQ, 4)),
}


# ------------------------------------------------ basis against the oracle


@pytest.mark.parametrize("make,n_top", [
    (lambda: dual_bar(F2), 6),
    (lambda: dual_bar(F3), 5),
    (lambda: dual_bar(QQ), 5),
    (lambda: module_bar(F3), 5),
    (pair_bar, 4),
    (lambda: exterior_bar(F3), 5),
    (lambda: BarComplex(suspended_dual_numbers(F3, 4)), 5),
], ids=["dual-F2", "dual-F3", "dual-Q", "module-F3", "pair-Q", "exterior-F3",
        "suspended-dual-F3"])
def test_sibling_sorted_basis_matches_normalizing_every_combination(make, n_top):
    for n_max in range(1, n_top + 1):
        assert make().enumerate_basis(n_max) == basis_oracle.full_basis(
            make(), n_max), n_max


def test_the_basis_drops_labelings_a_torsion_symmetry_kills():
    """Over Q, swapping two xi leaves under mu2 fixes the labeling with
    sign -1, so it is zero: the basis leaves it out, as normalizing every
    combination does."""
    for n_max in range(1, 6):
        keys = com_line_bar().enumerate_basis(n_max)
        assert keys == basis_oracle.full_basis(com_line_bar(), n_max), n_max
    bush = next(t for t in enumerate_trees(3) if t.L == {1, 2})
    assert (bush, ("1", "xi", "mu2")) in keys
    assert (bush, ("xi", "xi", "mu2")) not in keys


def test_basis_plans_only_shapes_every_vertex_can_label():
    B = pair_bar()
    B.enumerate_basis(5)
    assert B._plans and all(all(p.degrees) for p in B._plans.values())


# ---------------------------------------------- memos against fresh calls


@pytest.mark.parametrize("name", list(BARS))
def test_memoized_results_equal_a_fresh_bar_complex(name, monkeypatch):
    B = BARS[name]()
    raw = {}
    normal_hit = B._normal_hit

    def recording(plan, labels, es, fs):
        raw[(plan.tree, SignWord(1, es, fs), labels)] = None
        return normal_hit(plan, labels, es, fs)

    monkeypatch.setattr(B, "_normal_hit", recording)
    keys = B.enumerate_basis(5)
    raw.clear()  # keep only the raw terms that d and h produce
    for key in keys:
        for op in ("differential_key", "homotopy_key"):
            got = getattr(B, op)(key)
            assert getattr(B, op)(key) is got  # memoized per key
            assert got == getattr(BarComplex(B.algebra), op)(key), (op, key)
    assert raw
    one = B.field.one.val
    for t, w, labels in raw:
        assert B.normalize_term(t, w, labels, one) == BarComplex(
            B.algebra).normalize_term(t, w, labels, one), (t, w, labels)


@pytest.mark.parametrize("name", list(BARS))
def test_the_key_order_memo_keeps_every_sorted_order(name):
    """Sorting by the memoized key order gives the order the key built
    afresh gives, on the basis, on each d and h column and on a shuffle."""
    B = BARS[name]()
    fresh = bar._key_order.__wrapped__
    keys = B.enumerate_basis(5)
    columns = [list(keys), list(reversed(keys))]
    for key in keys:
        columns.append(list(B.differential_key(key)))
        columns.append(list(B.homotopy_key(key)))
    for column in columns:
        assert sorted(column, key=bar._key_order) == sorted(column, key=fresh)
    assert all(bar._key_order(k) == fresh(k) for k in keys)


@pytest.mark.parametrize("name", list(BARS))
def test_the_basis_interns_only_its_own_keys(name):
    """A tied labeling is tested for canonicity without normalizing it:
    after the basis, only basis keys have an id, no normal form is
    memoized, and the basis sort has filled no key order memo."""
    B = BARS[name]()
    before = bar._key_order.cache_info().currsize
    for n_max in range(1, 6):
        keys = B.enumerate_basis(n_max)
    assert len(B._keys) == len(keys)
    assert not B._normal_memo
    assert bar._key_order.cache_info().currsize == before


def _orbit_walk(B, sig, gens, start):
    """The orbit minimum of start by one walk from start, with no memo:
    (least label, raw coefficient carrying start to it), or () on
    torsion.  The walk multiplies boxed scalars; the memo holds raw
    values."""
    F = B.field
    best, seen, frontier = start, {start: F.one}, [start]
    while frontier:
        cur = frontier.pop()
        for pi, ws in gens:
            nm, cf = B._monomial_perm(sig, pi, cur)
            sgn = seen[cur] * F.scalar(cf) * F.scalar(ws)
            if nm not in seen:
                seen[nm] = sgn
                frontier.append(nm)
                if str(nm) < str(best):
                    best = nm
            elif seen[nm] != sgn:
                return ()
    return best, seen[best].val


@pytest.mark.parametrize("name", list(BARS) + ["com-line-Q"])
def test_every_orbit_memo_entry_equals_a_walk_from_its_own_label(name):
    """One walk memoizes every label it saw; each entry must be what a
    walk started at that label gives, torsion orbits included."""
    B = com_line_bar(4) if name == "com-line-Q" else BARS[name]()
    B.enumerate_basis(5)
    assert B._orbit_memo
    if name == "com-line-Q":
        assert () in B._orbit_memo.values()
    for (sig, gens, label), hit in B._orbit_memo.items():
        assert hit == _orbit_walk(B, sig, gens, label), (sig, gens, label)


def test_each_orbit_is_walked_once(monkeypatch):
    """On the window-6 basis of the dual numbers, the 328 labels asked
    for lie in 94 orbits, and each orbit is walked once."""
    m = parse_manifest((GOLDEN / "bar_w6.kz").read_text())
    B = BarComplex(build(m).algebras["dual"])
    walks = []
    walk = B._orbit_min

    def counted(sig, gens, start):
        if (sig, gens, start) not in B._orbit_memo:
            walks.append((sig, gens, start))
        return walk(sig, gens, start)

    monkeypatch.setattr(B, "_orbit_min", counted)
    B.enumerate_basis(m.window.n_max)
    orbits = set()
    for sig, gens, label in B._orbit_memo:
        members, frontier = {label}, [label]
        while frontier:
            cur = frontier.pop()
            for pi, _ in gens:
                nm = B._monomial_perm(sig, pi, cur)[0]
                if nm not in members:
                    members.add(nm)
                    frontier.append(nm)
        orbits.add((sig, gens, frozenset(members)))
    assert len(B._orbit_memo) > len(orbits)
    assert len(walks) <= len(orbits)


def test_the_normal_form_is_a_fresh_vector():
    B = dual_bar(F3)
    t, labels = key = B.enumerate_basis(3)[-1]
    first = B.normalize_term(t, B.basis_word(t, labels), labels, 1)
    first.clear()
    assert B.normalize_term(t, B.basis_word(t, labels), labels, 1) == {key: 1}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_normalize_term_is_linear_in_the_coefficient_and_the_word_sign(data):
    """On any planar labeled tree, canonical or not, scaling the
    coefficient or flipping the word's sign scales the normal form, in
    whichever order the memo is filled."""
    make = data.draw(st.sampled_from([lambda: exterior_bar(F3, 3),
                                      lambda: BarComplex(suspended_dual_numbers(QQ, 3)),
                                      lambda: dual_bar(QQ, 3)]))
    B = make()
    n = data.draw(st.integers(1, 4))
    t = data.draw(st.sampled_from(enumerate_trees(n)))
    labels = []
    for v in range(1, n + 1):
        comp = (B.algebra.carrier[B._sort_of(t, v)] if t.is_leaf(v)
                else B.operad.component(B._component_sig(t, v)))
        if comp is None:
            return
        labels.append(data.draw(st.sampled_from(sorted(comp.degrees, key=str))))
    labels = tuple(labels)
    w = B.basis_word(t, labels)
    F = B.field
    c = F.scalar(data.draw(st.integers(-3, 3))).val
    sign = data.draw(st.sampled_from([1, -1]))
    scaled = (t, SignWord(sign, w.es, w.fs), labels, c)
    if data.draw(st.booleans()):
        got, unit = B.normalize_term(*scaled), B.normalize_term(t, w, labels, F.one.val)
    else:
        unit, got = B.normalize_term(t, w, labels, F.one.val), B.normalize_term(*scaled)
    want = {} if not c else {
        k: F.scalar(sign * v * c).val for k, v in unit.items()}
    assert got == want


def test_a_failed_parity_check_is_never_memoized():
    """A word whose f's disagree with the labels' parities fails the
    check on every call, also after the right word's normal form of the
    same labeled tree is memoized."""
    B = exterior_bar(F3, 3)
    t, labels = next(k for k in B.enumerate_basis(2) if "e" in k[1])
    w = B.basis_word(t, labels)
    assert B.normalize_term(t, w, labels, 1)
    wrong = SignWord(1, w.es, ())
    for _ in range(2):
        with pytest.raises(bar.BarError, match="disagrees with parities"):
            B.normalize_term(t, wrong, labels, 1)


def _count_contractions(monkeypatch) -> dict:
    calls = {"edge": Counter(), "leaf": Counter()}
    edge, leaf = bar.edge_contract, bar.leaf_contract

    def counted_edge(t, q):
        calls["edge"][(t, q)] += 1
        return edge(t, q)

    def counted_leaf(t, i, j):
        calls["leaf"][(t, i, j)] += 1
        return leaf(t, i, j)

    monkeypatch.setattr(bar, "edge_contract", counted_edge)
    monkeypatch.setattr(bar, "leaf_contract", counted_leaf)
    return calls


def _once_each(calls: dict) -> bool:
    return all(counts and set(counts.values()) == {1}
               for counts in calls.values())


def test_each_contraction_is_computed_once_per_tree(monkeypatch):
    """Across a whole bar suite on the dual numbers at window 5, every
    edge and leaf contraction runs once per tree."""
    calls = _count_contractions(monkeypatch)
    m = parse_manifest((GOLDEN / "bar_w5.kz").read_text())
    built = build(m)
    rep = Report("bar", manifest_digest(m), DEFAULT_SEED)
    _run_bar(m, built, rep)
    assert rep.ok
    assert _once_each(calls)


def test_trees_with_several_words_share_their_contractions(monkeypatch):
    """An odd generator gives one tree several words; the contractions
    are still computed once per tree, not once per word."""
    calls = _count_contractions(monkeypatch)
    B = exterior_bar(F3)
    keys = B.enumerate_basis(5)
    words = Counter(t for t, _ in {(k[0], B.basis_word(*k)) for k in keys})
    assert max(words.values()) > 1
    for key in keys:
        B.differential_key(key)
    assert _once_each(calls)

