"""D-structures: validation, the induced differential on word windows
(nilpotency certified, overflow loud), the inclusion/splitting
compatibility identity, the twisted splitting as a null-homotopic chain
map, the root-split source built from the bar construction, morphism
verification, and both roundtrips against the quotient bar complex."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzbar.bar import BarComplex, _is_bare
from kzbar.catalog import (
    dual_numbers_algebra,
    ground_algebra,
    uass_operad,
    unit_operad,
)
from kzbar.complexes import ChainComplex, ChainMap, ComplexError
from kzbar.dstructures import (
    DMorphism,
    DStructure,
    DStructureError,
    bar_dstructure,
    build_delta_differential,
    compose_morphisms,
    delta_algebra,
    delta_prime,
    eta,
    extend_morphism,
    identity_morphism,
    is_equivalence,
    join_word,
    roundtrip_algebra,
    roundtrip_dstructure,
    split_identity_failures,
    verify_morphism,
)
from kzbar.fields import GF, QQ

F2 = GF(2)
F3 = GF(3)

USIG = (("*",), "*")
SIG2 = (("*", "*"), "*")


# ------------------------------------------------------------- builders


def point_ds(field):
    """One even cycle, no differential, no splitting."""
    op = unit_operad(field)
    comp = ChainComplex(field, {"z": 0}, {})
    return DStructure(op, comp, {})


def acyclic_ds(field):
    """x -> y with zero splitting; the window must stay acyclic."""
    op = unit_operad(field)
    comp = ChainComplex(field, {"x": 1, "y": 0}, {"x": {"y": field.one}})
    return DStructure(op, comp, {})


def nilpotent_ds(field):
    """Zero internal differential, one-term splitting x -> (y)."""
    op = unit_operad(field)
    comp = ChainComplex(field, {"x": 1, "y": 0}, {})
    un = op.unit_names["*"]
    return DStructure(op, comp, {("*", "x"): {(USIG, ("y",), un): field.one}})


def split_pair_ds(field):
    """x splits into two even factors through an arity-2 label."""
    op = uass_operad(field, 3)
    comp = ChainComplex(field, {"x": 1, "y": 0}, {})
    return DStructure(op, comp,
                      {("*", "x"): {(SIG2, ("y", "y"), (1, 2)): field.one}})


def unit_bar_ds(field, cap=4):
    return bar_dstructure(ground_algebra(field, unit_operad(field)), cap)


def dual_bar_ds(field, cap=3):
    alg = dual_numbers_algebra(field, uass_operad(field, 4))
    return bar_dstructure(alg, cap)


# ----------------------------------------------------------- validation


def test_delta_terms_must_drop_degree_by_one():
    op = unit_operad(QQ)
    comp = ChainComplex(QQ, {"x": 1, "y": 1}, {})
    un = op.unit_names["*"]
    with pytest.raises(DStructureError, match="drop the degree"):
        DStructure(op, comp, {("*", "x"): {(USIG, ("y",), un): QQ.one}})


def test_delta_factors_must_live_in_the_carrier():
    op = unit_operad(QQ)
    comp = ChainComplex(QQ, {"x": 1}, {})
    un = op.unit_names["*"]
    with pytest.raises(DStructureError, match="unknown"):
        DStructure(op, comp, {("*", "x"): {(USIG, ("ghost",), un): QQ.one}})


def test_delta_labels_must_live_in_the_operad():
    op = unit_operad(QQ)
    comp = ChainComplex(QQ, {"x": 1, "y": 0}, {})
    with pytest.raises(DStructureError, match="not in operad"):
        DStructure(op, comp, {("*", "x"): {(USIG, ("y",), "bogus"): QQ.one}})


def test_support_lists_arities_of_the_splitting():
    ds = split_pair_ds(QQ)
    assert ds.support("*", "x") == [2]
    assert ds.support("*", "y") == []


# ----------------------------------------------- the induced differential


def test_zero_splitting_gives_exactly_the_internal_differential():
    ds = acyclic_ds(QQ)
    window = build_delta_differential(ds, 2)
    comp = window.carrier["*"]
    for n in range(0, 3):
        part = ds.free.part(n, "*")
        for rep in part.complex.basis():
            got = comp.d.get((n, rep), {})
            want = {(n, r2): c for r2, c in part.complex.d.get(rep, {}).items()}
            assert got == want


def test_one_term_splitting_window_is_frozen():
    ds = nilpotent_ds(QQ)
    window = build_delta_differential(ds, 3)
    comp = window.carrier["*"]
    un = unit_operad(QQ).unit_names["*"]
    x_name = (1, (USIG, ("x",), un))
    y_name = (1, (USIG, ("y",), un))
    # the splitting lands with no sign: nothing stands before its slot
    assert comp.d == {x_name: {y_name: QQ.one}}
    assert comp.apply_d(comp.apply_d({x_name: QQ.one})) == {}
    assert window.stable == [0, 1]


def test_window_overflow_is_a_loud_error():
    ds = dual_bar_ds(QQ, cap=3)
    with pytest.raises(DStructureError, match="window arity"):
        build_delta_differential(ds, 1)


def test_stable_override_is_passed_through():
    op = unit_operad(QQ)
    comp = ChainComplex(QQ, {"z": 0}, {})
    ds = DStructure(op, comp, {}, stable=[7])
    assert build_delta_differential(ds, 1).stable == [7]


def test_unbounded_operad_window_reports_no_stable_degrees():
    op = uass_operad(QQ, 2)
    comp = ChainComplex(QQ, {"y": 0}, {})
    ds = DStructure(op, comp, {})
    assert build_delta_differential(ds, 2).stable == []


def test_point_window_has_homology():
    # d = 0 and delta = 0 on a nonzero carrier cannot be acyclic
    window = build_delta_differential(point_ds(QQ), 2)
    assert window.carrier["*"].homology([0])[0].dim == 1


def test_induced_differential_descends_to_coinvariants():
    ds = split_pair_ds(QQ)
    for a in ("x", "y"):
        for b in ("x", "y"):
            for lab in ((1, 2), (2, 1)):
                w = {(SIG2, (a, b), lab): QQ.one.val}
                img = ds.free._diagonal_swap((SIG2, (a, b), lab), 1)
                assert ds.project(ds.delta_vec(w)) == \
                    ds.project(ds.delta_vec(img))


@settings(deadline=None, max_examples=20)
@given(st.data())
def test_bar_descent_on_sampled_two_factor_words(data):
    ds = dual_bar_ds(QQ, cap=2)
    keys = ds.carrier["*"].basis()
    k1 = data.draw(st.sampled_from(keys))
    k2 = data.draw(st.sampled_from(keys))
    lab = data.draw(st.sampled_from([(1, 2), (2, 1)]))
    name = (SIG2, (k1, k2), lab)
    img = ds.free._diagonal_swap(name, 1)
    assert ds.project(ds.delta_vec({name: QQ.one.val})) == \
        ds.project(ds.delta_vec(img))


def test_induced_differential_is_a_derivation_on_sampled_words():
    ds = split_pair_ds(QQ)
    inc = eta(ds)
    for a in ("x", "y"):
        for b in ("x", "y"):
            for lab in ((1, 2), (2, 1)):
                va, vb = inc[("*", a)], inc[("*", b)]
                lhs = ds.delta_vec(ds.free.compose([va, vb], SIG2, lab))
                rhs = ds.free.compose([ds.delta_vec(va), vb], SIG2, lab)
                sgn = -1 if ds.degree("*", a) % 2 else 1
                for big, c in ds.free.compose([va, ds.delta_vec(vb)],
                                              SIG2, lab).items():
                    rhs[big] = rhs.get(big, 0) + sgn * c
                rhs = {k: v for k, v in rhs.items() if v}
                assert ds.project(lhs) == ds.project(rhs)


# ------------------------------------- inclusion and the twisted splitting


@pytest.mark.parametrize("build,field", [
    (acyclic_ds, QQ),
    (nilpotent_ds, QQ),
    (nilpotent_ds, F3),
    (split_pair_ds, QQ),
    (unit_bar_ds, QQ),
    (dual_bar_ds, QQ),
    (dual_bar_ds, F2),
])
def test_inclusion_fails_by_exactly_the_twisted_splitting(build, field):
    assert split_identity_failures(build(field)) == []


def test_inclusion_is_not_a_chain_map_when_delta_is_nonzero():
    ds = nilpotent_ds(QQ)
    window = build_delta_differential(ds, 1)
    entries = {x: dict(vec) for (_, x), vec in
               ((k, ds.project(v).get("*", {})) for k, v in eta(ds).items())}
    with pytest.raises(ComplexError):
        ChainMap.from_raw(ds.carrier["*"], window.carrier["*"], entries)


def test_twisted_splitting_vanishes_without_a_splitting():
    prime = delta_prime(acyclic_ds(QQ), 2)
    assert all(not cm.entries for cm in prime.values())


def test_twisted_splitting_raises_when_the_witness_breaks(monkeypatch):
    ds = acyclic_ds(QQ)
    monkeypatch.setattr(ds.free, "word_d", lambda big: {})
    with pytest.raises(DStructureError,
                       match="null-homotopy witness broken at 'x'"):
        delta_prime(ds, 2)


def test_twisted_splitting_projects_bar_elements_onto_their_own_class():
    ds = unit_bar_ds(QQ, cap=4)
    B = BarComplex(ground_algebra(QQ, unit_operad(QQ)))
    prime = delta_prime(ds, 1)["*"]
    seen = 0
    for key in ds.carrier["*"].basis():
        img = prime.apply({key: QQ.one})
        if _is_bare(key):
            assert img == {}
            continue
        pushed = {}
        for (_, (sig, xw, c)), cf in img.items():
            for k2, s2 in join_word(B, xw, sig, c).items():
                pushed[k2] = pushed.get(k2, QQ.zero) + cf * QQ.scalar(s2)
        resign = QQ.one if ds.degree("*", key) % 2 == 0 else -QQ.one
        assert {k: v for k, v in pushed.items() if not v.is_zero()} == \
            {key: resign}
        seen += 1
    assert seen == 3


def test_twisted_splitting_window_overflows_for_unbounded_arity():
    with pytest.raises(DStructureError, match="window arity"):
        delta_prime(dual_bar_ds(QQ, cap=3), 3)


# ------------------------------------------------------- root-split source


def test_bar_splitting_support_is_the_root_valence():
    ds = dual_bar_ds(QQ, cap=3)
    for (srt, key), vec in ds._delta.items():
        t, _ = key
        assert ds.support(srt, key) == [len(t.children(t.n))]
    for key in ds.carrier["*"].basis():
        if _is_bare(key):
            assert ds.delta_of("*", key) == {}


def test_bar_splitting_of_the_two_leaf_bush_is_frozen():
    ds = dual_bar_ds(QQ, cap=3)
    bush = next(k for k in ds.carrier["*"].basis()
                if len(k[0].L) == 2 and k[0].n == 3
                and k[1] == ("1", "1", (1, 2)))
    bare = next(k for k in ds.carrier["*"].basis()
                if _is_bare(k) and k[1] == ("1",))
    # the bush has odd degree, so its stored splitting carries the twist
    assert ds.delta_of("*", bush) == {(SIG2, (bare, bare), (1, 2)): -QQ.one.val}


def test_bar_splitting_of_a_stump_has_arity_zero():
    ds = dual_bar_ds(QQ, cap=3)
    stump = next(k for k in ds.carrier["*"].basis()
                 if k[0].n == 1 and not k[0].L)
    assert ds.support("*", stump) == [0]


def test_join_inverts_the_root_split_up_to_the_degree_twist():
    alg = dual_numbers_algebra(QQ, uass_operad(QQ, 4))
    B = BarComplex(alg)
    ds = bar_dstructure(alg, 3)
    for (_, key), vec in sorted(ds._delta.items(), key=lambda kv: str(kv[0])):
        out = {}
        for (sig, xw, c), cf in vec.items():
            for k2, s2 in join_word(B, xw, sig, c).items():
                out[k2] = out.get(k2, 0) + cf * s2
        resign = 1 if B.degree_of(*key) % 2 == 0 else -1
        assert {k: v for k, v in out.items() if v} == {key: resign}


def test_bar_source_carries_its_own_stability_window():
    alg = ground_algebra(QQ, unit_operad(QQ))
    ds = bar_dstructure(alg, 4)
    assert ds.stable == BarComplex(alg).stable_degrees(4)
    assert dual_bar_ds(QQ, cap=3).stable == []


# ------------------------------------------------------------- morphisms


def test_identity_morphism_verifies():
    report = verify_morphism(identity_morphism(nilpotent_ds(QQ)))
    assert report.ok
    assert report.first_divergence is None
    assert report.checked > 2


def test_morphism_must_preserve_degree():
    ds = nilpotent_ds(QQ)
    un = unit_operad(QQ).unit_names["*"]
    with pytest.raises(DStructureError, match="preserve degree"):
        DMorphism(ds, ds, {("*", "x"): {(USIG, ("y",), un): QQ.one}})


def test_corrupted_coefficient_is_reported_with_its_element():
    ds = nilpotent_ds(QQ)
    f0 = eta(ds)
    f0[("*", "x")] = {big: c + c for big, c in f0[("*", "x")].items()}
    report = verify_morphism(DMorphism.from_raw(ds, ds, f0))
    assert not report.ok
    label, got, want = report.first_divergence
    assert label == ("*", "x")
    assert got != want


def test_composition_is_unital_and_associative():
    ds = nilpotent_ds(QQ)
    two, three = QQ.scalar(2), QQ.scalar(3)

    def scaling(c):
        return DMorphism(ds, ds, {k: {b: c * QQ.scalar(s) for b, s in v.items()}
                                  for k, v in eta(ds).items()})

    f, g, h = scaling(two), scaling(three), scaling(two)
    i = identity_morphism(ds)
    assert compose_morphisms(i, f).f0 == f.f0
    assert compose_morphisms(f, i).f0 == f.f0
    lhs = compose_morphisms(compose_morphisms(h, g), f)
    rhs = compose_morphisms(h, compose_morphisms(g, f))
    assert lhs.f0 == rhs.f0
    assert verify_morphism(f).ok


def test_composition_needs_matching_middle():
    with pytest.raises(DStructureError, match="middle"):
        compose_morphisms(identity_morphism(nilpotent_ds(QQ)),
                          identity_morphism(point_ds(QQ)))


def test_identity_is_an_equivalence():
    report = is_equivalence(identity_morphism(nilpotent_ds(QQ)), 2)
    assert report.equivalence
    assert report.stable_degrees == [0, 1]
    assert all(v.isomorphism for v in report.verdicts.values())


def test_map_to_an_acyclic_target_is_not_an_equivalence():
    src = point_ds(QQ)
    tgt = acyclic_ds(QQ)
    un = unit_operad(QQ).unit_names["*"]
    m = DMorphism(src, tgt, {("*", "z"): {(USIG, ("y",), un): QQ.one}})
    assert verify_morphism(m).ok
    report = is_equivalence(m, 2)
    assert not report.equivalence
    assert report.verdicts[("*", 0)].isomorphism is False


# ------------------------------------------------------------- roundtrips


@pytest.mark.parametrize("field", [QQ, F3])
def test_roundtrip_through_the_quotient_bar_unit_operad(field):
    report = roundtrip_algebra(ground_algebra(field, unit_operad(field)), 4)
    assert report.basis_matched
    assert report.dimension == 3
    assert report.matrices_equal
    assert report.first_divergence is None
    assert report.stable_degrees == [0, 1]
    assert all(v.isomorphism for v in report.evaluation.values())
    assert report.evaluation[0].target_dim == 1
    assert report.note == ""


@pytest.mark.parametrize("field", [QQ, F2])
def test_roundtrip_through_the_quotient_bar_dual_numbers(field):
    alg = dual_numbers_algebra(field, uass_operad(field, 4))
    report = roundtrip_algebra(alg, 4)
    assert report.basis_matched
    assert report.dimension == 73
    assert report.matrices_equal
    # no degree window of this complex is complete, and the report says so
    assert report.stable_degrees == []
    assert report.note != ""


def test_roundtrip_through_the_bar_of_a_point():
    report = roundtrip_dstructure(point_ds(QQ), 2, 3)
    assert report.counit.ok
    assert report.equivalence is not None
    assert report.equivalence.equivalence
    assert all(v.isomorphism for v in report.evaluation.values())
    assert report.conclusion


def test_roundtrip_through_the_bar_of_the_bar_source():
    report = roundtrip_dstructure(unit_bar_ds(QQ, cap=4), 1, 3)
    assert report.counit.ok
    assert report.equivalence is not None
    assert report.equivalence.equivalence


def test_windowed_algebra_multiplies_through_the_operad():
    ds = nilpotent_ds(QQ)
    alg = delta_algebra(ds, 2)
    un = unit_operad(QQ).unit_names["*"]
    x_name = (1, (USIG, ("x",), un))
    y_name = (1, (USIG, ("y",), un))
    out = alg.theta_basis(USIG, un, (x_name,))
    assert out == {x_name: QQ.one}
    comp = alg.carrier["*"]
    assert comp.apply_d({x_name: QQ.one}) == {y_name: QQ.one}
