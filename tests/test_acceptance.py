"""Acceptance battery: ten guarantees, one pass/fail line each.

The example stock is fixed throughout.  Three algebras, each taken over
Q, F2 and F3: the ground field over the one-sort unit pattern, the dual
numbers over the unital word pattern, and the two-sorted pair of a
two-dimensional unital algebra acting on a one-dimensional module.
Every comparison below is exact arithmetic on frozen windows; nothing
is sampled with a tolerance, and the random draws are seeded.

Expensive objects (bar complexes, extracted D-structures, roundtrip
reports) are built once at module scope and shared between criteria.
"""

import random

from sign_oracle import naive_normalize
from test_trees import all_intertwiners, brute_force_trees

from kzbar.algebras import FreeAlgebra
from kzbar.bar import BarComplex
from kzbar.catalog import (
    ass_operad,
    augmentation_module_pair,
    dual_numbers_algebra,
    ground_algebra,
    module_operad,
    uass_operad,
    unit_operad,
)
from kzbar.complexes import ChainComplex
from kzbar.dstructures import (
    bar_dstructure,
    roundtrip_algebra,
    roundtrip_dstructure,
    split_identity_failures,
)
from kzbar.fields import GF, QQ
from kzbar.linalg import vec_iaxpy
from kzbar.signs import multiply, word
from kzbar.trees import (
    canonical_form,
    edge_contract,
    enumerate_trees,
    find_intertwiner,
    is_intertwiner,
    leaf_contract,
)

FIELDS = [("Q", QQ), ("F2", GF(2)), ("F3", GF(3))]


def build_examples(field):
    # operad cap 4 carries every window used below (trees stay <= 5
    # vertices, so no vertex exceeds arity 4 even after a graft)
    return [
        ("unit", ground_algebra(field, unit_operad(field))),
        ("dual", dual_numbers_algebra(field, uass_operad(field, 4))),
        ("pair", augmentation_module_pair(field, module_operad(field, 4))),
    ]


_BARS: dict = {}
_DSTRUCTS: dict = {}
_ROUNDTRIPS: dict = {}


def bars():
    if not _BARS:
        for fname, field in FIELDS:
            for aname, alg in build_examples(field):
                _BARS[(aname, fname)] = BarComplex(alg)
    return _BARS


def dstructs():
    """The nine extracted D-structures, at the window the matrix
    comparison of the roundtrip uses internally."""
    if not _DSTRUCTS:
        for tag, B in bars().items():
            _DSTRUCTS[tag] = bar_dstructure(B.algebra, 3)
    return _DSTRUCTS


def roundtrips():
    if not _ROUNDTRIPS:
        for tag, B in bars().items():
            _ROUNDTRIPS[tag] = roundtrip_algebra(B.algebra, 4)
    return _ROUNDTRIPS


def _combine(B, *vecs):
    out = {}
    for v in vecs:
        vec_iaxpy(out, B.field.one, v)
    return out


def test_criterion_01_sign_normalization_matches_the_rewriting_oracle():
    """10_000 seeded random generator strings on indices up to 8,
    production normalizer against the one-step rewriting oracle."""
    from kzbar.signs import _normalize

    rng = random.Random(1729)
    for _ in range(10_000):
        sign = rng.choice([1, -1])
        gens = [(rng.choice("ef"), rng.randint(1, 8))
                for _ in range(rng.randint(0, 10))]
        got = multiply(word(sign=sign, es=[], fs=[]), _normalize(1, gens))
        assert got == naive_normalize(sign, gens)


def test_criterion_02_tree_enumeration_and_intertwiners():
    """Enumeration counts against brute force up to n = 6; the
    canonical-form partition agrees with pairwise intertwiner search up
    to n = 5; and every intertwiner passes through edge and leaf
    contractions, exhaustively up to n = 5."""
    for n in range(1, 7):
        assert len(enumerate_trees(n)) == len(brute_force_trees(n))

    for n in range(1, 6):
        ts = enumerate_trees(n)
        cf = {t: canonical_form(t)[0] for t in ts}
        for t1 in ts:
            for t2 in ts:
                found = find_intertwiner(t1, t2) is not None
                assert found == (cf[t1] == cf[t2]), (t1, t2)

    for n in range(2, 6):
        classes: dict = {}
        for t in enumerate_trees(n):
            classes.setdefault(canonical_form(t)[0], []).append(t)
        for cls in classes.values():
            for t1 in cls:
                for t2 in cls:
                    for sig in all_intertwiners(t1, t2):
                        for j in range(1, n):
                            if j in t1.L:
                                continue
                            w1 = edge_contract(t1, j)
                            w2 = edge_contract(t2, sig[j - 1])
                            induced = tuple(
                                w2.rho[sig[w1.tau[k - 1] - 1] - 1]
                                for k in range(1, n))
                            assert is_intertwiner(
                                w1.result, w2.result, induced)
                        for j in range(1, n + 1):
                            if j in t1.L:
                                continue
                            kids = t1.children(j)
                            if any(k not in t1.L for k in kids):
                                continue
                            i = kids[0] if kids else j
                            if kids != list(range(i, j)):
                                continue
                            j2 = sig[j - 1]
                            kids2 = t2.children(j2)
                            i2 = kids2[0] if kids2 else j2
                            w1 = leaf_contract(t1, i, j)
                            w2 = leaf_contract(t2, i2, j2)
                            induced = tuple(
                                w2.rho[sig[w1.tau[k - 1] - 1] - 1]
                                for k in range(1, w1.result.n + 1))
                            assert is_intertwiner(
                                w1.result, w2.result, induced)


def test_criterion_03_bar_differential_squares_to_zero():
    # every basis element of every example, trees up to 5 vertices
    for tag, B in bars().items():
        one = B.field.one
        for key in B.enumerate_basis(5):
            assert B.differential(B.differential({key: one})) == {}, (
                tag, key)


def test_criterion_04_graft_homotopy_contracts_the_augmented_window():
    """dh + hd = Id elementwise on trees up to 5 vertices.  By
    elimination this forces H = 0 in every degree the window reports
    faithfully, so no separate homology computation is needed."""
    for tag, B in bars().items():
        one = B.field.one
        for key in B.enumerate_basis(5):
            x = {key: one}
            total = _combine(B, B.differential(B.homotopy(x)),
                             B.homotopy(B.differential(x)))
            assert total == x, (tag, key)


def test_criterion_05_evaluation_is_a_stable_quasi_iso():
    """Evaluation off the quotient window is a chain map (certified
    entry by entry at construction) and induces an isomorphism on
    homology in every stable degree, with the dimensions on both sides
    equal on the nose.  Only the unit pattern has stable degrees at a
    finite window; for the unbounded patterns the homology clause is
    vacuous here and their evaluation content lives in the roundtrip
    criteria."""
    contentful = 0
    for (aname, fname), B in bars().items():
        quotient = B.bar_quotient(5)
        mu = B.mu_chain_map(quotient)
        stable = B.stable_degrees(5)
        verdicts = mu.is_quasi_iso(stable)
        for deg in stable:
            v = verdicts[deg]
            assert v.isomorphism, (aname, fname, deg, v)
            assert v.source_dim == v.target_dim == v.induced_rank
        if aname == "unit":
            assert stable == [0, 1, 2]
            assert [verdicts[d].target_dim for d in stable] == [1, 0, 0]
        contentful += len(stable)
    assert contentful == 9


def test_criterion_06_extracted_splitting_rebuilds_the_differential():
    """The word differential of each extracted D-structure, grafted
    back onto trees, reproduces the quotient bar differential entry for
    entry on the n <= 4 window, after the basis identification is
    matched one to one."""
    for tag, rep in roundtrips().items():
        assert rep.basis_matched, tag
        assert rep.matrices_equal, (tag, rep.first_divergence)


def test_criterion_07_splitting_satisfies_the_commutator_identity():
    # delta agrees with d . eta - eta . d on every generator, for every
    # extracted D-structure; plus a deeper window where windows close
    for tag, ds in dstructs().items():
        assert split_identity_failures(ds) == [], tag
    for fname, field in FIELDS:
        deep = bar_dstructure(bars()[("unit", fname)].algebra, 5)
        assert split_identity_failures(deep) == [], fname


def test_criterion_08_roundtrip_certificates():
    """Both composites of the correspondence.  Rebuilding the quotient
    bar from the extracted D-structure evaluates isomorphically on
    every stable degree, for all nine instances (with the vacuity of an
    empty stable window recorded in the report, never silent).  Over
    the unit pattern, whose arity window closes, the counit of the
    other composite intertwines the differentials and is certified an
    equivalence on a nonempty stable window."""
    for tag, rep in roundtrips().items():
        for deg, v in rep.evaluation.items():
            assert v.isomorphism, (tag, deg, v)
        if not rep.stable_degrees:
            assert rep.note
    for fname, field in FIELDS:
        rd = roundtrip_dstructure(dstructs()[("unit", fname)], 3, bar_cap=4)
        assert rd.counit.ok, (fname, rd.counit.first_divergence)
        assert rd.counit.checked > 0
        assert rd.equivalence is not None
        assert rd.equivalence.equivalence, (fname, rd.equivalence)
        assert rd.stable_degrees
        for deg, v in rd.evaluation.items():
            assert v.isomorphism, (fname, deg, v)


def test_criterion_09_free_parts_over_f2_stay_acyclic():
    """Free word algebra on a seeded random contractible two-term
    complex over F2: every arity part up to n = 4 is again acyclic, so
    taking coinvariants loses nothing even where the group order kills
    the averaging trick."""
    field = GF(2)
    rng = random.Random(271)
    for trial in range(5):
        low = rng.randrange(-2, 3)
        X = ChainComplex(field, {"a": low + 1, "b": low},
                         {"a": {"b": field.one}})
        free = FreeAlgebra({"*": X}, ass_operad(field, 4))
        for n in range(1, 5):
            H = free.part(n).complex.homology()
            assert all(s.dim == 0 for s in H.values()), (trial, low, n)


def test_criterion_10_two_sorted_pair_rerun():
    """The bar identities, evaluation, matrix comparison, splitting
    identity and roundtrip, recomputed from scratch for the two-sorted
    pair example over all three fields.  Nothing here reuses the module
    caches, so a pass is independent evidence that the two-sorted path
    carries the whole battery."""
    for fname, field in FIELDS:
        alg = augmentation_module_pair(field, module_operad(field, 4))
        B = BarComplex(alg)
        one = B.field.one
        for key in B.enumerate_basis(5):
            x = {key: one}
            assert B.differential(B.differential(x)) == {}, (fname, key)
            total = _combine(B, B.differential(B.homotopy(x)),
                             B.homotopy(B.differential(x)))
            assert total == x, (fname, key)

        quotient = B.bar_quotient(5)
        mu = B.mu_chain_map(quotient)
        assert B.stable_degrees(5) == []
        assert mu.is_quasi_iso([]) == {}

        rep = roundtrip_algebra(alg, 4)
        assert rep.basis_matched, fname
        assert rep.matrices_equal, (fname, rep.first_divergence)
        for deg, v in rep.evaluation.items():
            assert v.isomorphism, (fname, deg, v)

        ds = bar_dstructure(alg, 3)
        assert split_identity_failures(ds) == [], fname
