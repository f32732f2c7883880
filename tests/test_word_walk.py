"""Free-algebra words walked in str order, and windows that stop early.

``FreeAlgebra._iter_words`` yields the words of a part in str order
without sorting them, and ``FreePart.walk`` hands a part's classes out
as they are built.  The order is compared with ``orbit_oracle.big_words``
sorted by str on every part n <= 3 of the stock D-structure carriers and
free algebras, and as a property of the product of repr-sorted pools on
names whose str and repr orders disagree.  ``build_delta_differential``
reads the walk, so a window that does not close stops at its first
overflowing word and a window that closes walks each part once.
"""

from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kzbar.algebras import free
from kzbar.catalog import (augmentation_module_pair, com_operad,
                           dual_numbers_algebra, module_operad, uass_operad)
from kzbar.cli import (DEFAULT_SEED, Report, _run_dstruct, _run_roundtrip,
                       to_json)
from kzbar.complexes import ChainComplex
from kzbar.dstructures import (DStructureError, bar_dstructure,
                               build_delta_differential)
from kzbar.fields import GF, QQ
from kzbar.linalg import echelon_raw, raw_iaxpy
from kzbar.manifest import build, load_builtin, manifest_digest, parse_manifest
from kzbar.operads import CapExceeded

from orbit_oracle import big_words
from suspension import suspended_dual_numbers
from test_free_orbits import free_algebra

GOLDEN = Path(__file__).resolve().parent / "golden"
F2, F3 = GF(2), GF(3)


def _pair(field, cap: int):
    return augmentation_module_pair(field, module_operad(field, cap))


FREE_ALGEBRAS = {
    "dual-F2": lambda: bar_dstructure(dual_numbers_algebra(F2, uass_operad(F2, 4)), 3).free,
    "dual-F3": lambda: bar_dstructure(dual_numbers_algebra(F3, uass_operad(F3, 4)), 3).free,
    "dual-Q": lambda: bar_dstructure(dual_numbers_algebra(QQ, uass_operad(QQ, 4)), 3).free,
    "suspended-dual-F3": lambda: bar_dstructure(suspended_dual_numbers(F3, 4), 3).free,
    "module-F3": lambda: free_algebra("module", "F3", "odd"),
    "pair-Q": lambda: bar_dstructure(_pair(QQ, 4), 3).free,
    "pair-F3": lambda: bar_dstructure(_pair(F3, 3), 2).free,
}


def _oracle_classes(fa, n: int, out_sort: str) -> list:
    """The part's classes as the oracle sees them: the str-sorted words
    whose label is the root of its label orbit, with their degrees."""
    roots = fa.operad.label_orbits(n).members
    out = []
    for w in sorted(big_words(fa, n, out_sort), key=str):
        sig, xw, c = w
        if roots[(sig, c)][0] == (sig, c):
            deg = fa.operad.degree_of(sig, c) + sum(
                fa.generators[s].degrees[x] for s, x in zip(sig[0], xw))
            out.append((w, deg))
    return out


@pytest.mark.parametrize("name", list(FREE_ALGEBRAS))
def test_the_walk_is_str_order(name):
    fa = FREE_ALGEBRAS[name]()
    assert fa.operad.certificate == "free-module"
    for out_sort in fa.operad.sorts:
        for n in range(0, 4):
            words = [w for w, _ in fa._iter_words(n, out_sort)]
            assert words == sorted(big_words(fa, n, out_sort), key=str), (n, out_sort)
            assert list(fa.part(n, out_sort).walk()) == _oracle_classes(fa, n, out_sort)


# Names whose str and repr orders disagree: ints where one repr continues
# another, strings with quotes and spaces, and tuples nesting both.
_ATOMS = st.one_of(st.sampled_from([1, 12, -1, -12, 0, 10]), st.integers(-200, 200),
                   st.text(alphabet="ab '\"\\", max_size=4))
_NAMES = st.recursive(_ATOMS, lambda inner: st.lists(inner, max_size=3).map(tuple),
                      max_leaves=6)
_POOL = st.lists(_NAMES, min_size=1, max_size=5, unique_by=repr)


@settings(deadline=None, max_examples=100)
@given(st.lists(_POOL, min_size=0, max_size=3), _POOL)
def test_product_of_repr_sorted_pools_is_str_order(pools, labels):
    sig = (tuple("*" for _ in pools), "*")
    words = [(sig, xw, c)
             for xw in product(*(sorted(p, key=repr) for p in pools))
             for c in sorted(labels, key=repr)]
    assert words == sorted(words, key=str)


@settings(deadline=None, max_examples=30)
@given(_POOL)
def test_generator_names_walk_in_str_order(names):
    gens = ChainComplex(F2, {x: 0 for x in names}, {})
    fa = free(gens, uass_operad(F2, 3))
    for n in range(0, 4):
        words = [w for w, _ in fa._iter_words(n, "*")]
        assert words == sorted(big_words(fa, n, "*"), key=str)


def _com_by_str_sorted_pools(fa, n: int):
    """The elimination route as it stood with its pools in str order:
    relations in that order, reps the str-sorted non-pivot words, on raw
    values."""
    one = fa.field.one.val
    words = []
    for sig in fa.operad.arity_signatures(n):
        pools = [fa.generators[s].basis() for s in sig[0]]
        labels = fa.operad.components[sig].basis()
        words.extend((sig, xw, c) for xw in product(*pools) for c in labels)
    relations = []
    for w in words:
        for k in range(1, n):
            rel = {w: one}
            raw_iaxpy(rel, -1, fa._diagonal_swap(w, k), fa.field.p)
            if rel:
                relations.append(rel)
    ech = echelon_raw(relations, fa.field)
    pivots = set(ech.pivots)
    reps = sorted((w for w in words if w not in pivots), key=str)
    return words, reps, ech.reduce


def test_com_keeps_its_reps_and_projection():
    """Com, the one stock operad on the elimination route, exists over Q
    only; its relations now come in another order, which moves neither a
    pivot nor a reduced row of the elimination."""
    field = QQ
    one = field.one
    gens = ChainComplex(field, {"a": 0, "a b": 1, "it's": 1, 1: 2, 12: 0},
                        {"a b": {"a": one}})
    fa = free(gens, com_operad(field, 3))
    assert fa.operad.certificate != "free-module"
    for n in range(0, 4):
        part = fa.part(n)
        words, reps, project = _com_by_str_sorted_pools(fa, n)
        assert list(part.big_degrees) != words or not words  # the relations reorder
        assert part.reps == reps
        assert list(part.walk()) == list(part.degrees.items())
        for w in words:
            assert part.project({w: one.val}) == project({w: one.val}), w


# ------------------------------------------------------- laziness of windows


def _count_words(monkeypatch, fa) -> Counter:
    """Count the words each (arity, sort, labels given) walk yields."""
    made: Counter = Counter()
    iter_words = fa._iter_words

    def counting(n, out_sort, labels=None):
        for item in iter_words(n, out_sort, labels):
            made[(n, out_sort, labels is not None)] += 1
            yield item

    monkeypatch.setattr(fa, "_iter_words", counting)
    return made


def test_an_open_window_stops_at_its_first_overflowing_word(monkeypatch):
    ds = build(parse_manifest(load_builtin("uass_dual_numbers"))).dstructures["bardual"]
    made = _count_words(monkeypatch, ds.free)
    with pytest.raises(DStructureError) as exc:
        build_delta_differential(ds, 3)
    golden = (GOLDEN / "uass_dual_numbers.dstruct.json").read_text()
    assert str(exc.value).startswith("window arity 3 too small: the differential of (3, ")
    assert str(exc.value).endswith("(sort '*') reaches arity 4")
    assert f'"note": "window does not close: {exc.value}"' in golden
    assert "degrees" not in vars(ds.free.part(3))
    assert 0 < made[(3, "*", True)] <= 10
    assert not [key for key in made if key[0] > 3 or not key[2]]


def test_an_open_window_past_the_cap_stops_on_the_cap():
    text = load_builtin("uass_dual_numbers").replace("cap 4", "cap 3")
    ds = build(parse_manifest(text)).dstructures["bardual"]
    with pytest.raises(CapExceeded) as exc:
        build_delta_differential(ds, 3)
    assert str(exc.value) == "gamma result arity 4 exceeds cap 3"


def test_a_closed_window_walks_each_part_once(monkeypatch):
    m = parse_manifest((GOLDEN / "pair_f3_w2.kz").read_text())
    built = build(m)
    fa = built.dstructures["barpair"].free
    made = _count_words(monkeypatch, fa)
    for suite, run_suite in (("dstruct", _run_dstruct), ("roundtrip", _run_roundtrip)):
        rep = Report(suite, manifest_digest(m), DEFAULT_SEED)
        run_suite(m, built, rep)
        assert to_json(rep).encode() == (GOLDEN / f"pair_f3_w2.{suite}.json").read_bytes()
    parts = [(n, srt, True) for srt in fa.operad.sorts for n in range(0, 3)]
    assert set(made) <= set(parts)
    for n, srt, _ in parts:
        part = fa.part(n, srt)
        assert "degrees" in vars(part)
        assert list(part.degrees.items()) == _oracle_classes(fa, n, srt)
        assert made[(n, srt, True)] == len(part.degrees)  # each word once
