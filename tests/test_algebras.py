"""Algebra layer: action axioms on the stock algebras, free-algebra
coinvariants by two independent routes, induced maps, acyclicity."""

import pytest

from kzbar.algebras import (
    AlgebraError,
    FreeAlgebra,
    free,
    free_as_algebra,
    free_map,
    verify_algebra,
)
from kzbar.catalog import (
    ass_operad,
    augmentation_module_pair,
    com_operad,
    dual_numbers_algebra,
    ground_algebra,
    module_operad,
    uass_operad,
    unit_operad,
    word_algebra,
)
from kzbar.complexes import ChainComplex, ChainMap
from kzbar.fields import GF, QQ
from kzbar.operads import Operad, single_sig

F2 = GF(2)
F3 = GF(3)


def kline(field, name="g", deg=0):
    return ChainComplex(field, {name: deg}, {})


def recertified(op, certificate):
    """The same operad rules under another certificate."""
    return Operad(op.field, op.sorts, op.cap, op.components, op.unit_names,
                  op._gamma_rule, op._sym_rule, certificate, name=op.name,
                  arity_bound=op.arity_bound)


@pytest.fixture
def routes(monkeypatch):
    """The coinvariant route of every part built, in build order."""
    taken = []
    for route in ("elimination", "orbit"):
        real = getattr(FreeAlgebra, f"_coinvariants_by_{route}")

        def spy(self, *args, _real=real, _route=route):
            taken.append(_route)
            return _real(self, *args)

        monkeypatch.setattr(FreeAlgebra, f"_coinvariants_by_{route}", spy)
    return taken


def acyclic_pair(field, low=0):
    return ChainComplex(field, {"u": low, "v": low + 1}, {"v": {"u": field.one}})


def exterior_exact(field, operad):
    """Odd generator e with de = 1; exercises every sign path."""
    one = field.one
    return word_algebra(
        field, operad,
        degrees={"1": 0, "e": 1},
        mult={("1", "1"): {"1": one}, ("1", "e"): {"e": one},
              ("e", "1"): {"e": one}},
        unit_name="1",
        d={"e": {"1": one}},
        name="exterior-exact",
    )


# ------------------------------------------------------------ verification


STOCK_ALGEBRAS = {
    "ground-unit": lambda: ground_algebra(QQ, unit_operad(QQ)),
    "ground-uAss": lambda: ground_algebra(F2, uass_operad(F2, 3)),
    "dual-Q": lambda: dual_numbers_algebra(QQ, uass_operad(QQ, 3)),
    "dual-F2": lambda: dual_numbers_algebra(F2, uass_operad(F2, 3)),
    "dual-F3": lambda: dual_numbers_algebra(F3, uass_operad(F3, 3)),
    "ext-Q": lambda: exterior_exact(QQ, uass_operad(QQ, 3)),
    "ext-F3": lambda: exterior_exact(F3, uass_operad(F3, 3)),
    "pair-Q": lambda: augmentation_module_pair(QQ, module_operad(QQ, 3)),
    "pair-F2": lambda: augmentation_module_pair(F2, module_operad(F2, 3)),
}


@pytest.mark.parametrize("make", list(STOCK_ALGEBRAS.values()), ids=list(STOCK_ALGEBRAS))
def test_verify_stock_algebras(make):
    rep = verify_algebra(make())
    assert rep.ok, rep.failures[:5]
    assert rep.checks_run > 0


def test_verify_names_broken_unit_law():
    op = uass_operad(QQ, 3)
    two = QQ.scalar(2)
    alg = word_algebra(
        QQ, op,
        degrees={"1": 0, "x": 0},
        mult={("1", "1"): {"1": QQ.one}, ("1", "x"): {"x": two},
              ("x", "1"): {"x": QQ.one}},
        unit_name="1",
    )
    rep = verify_algebra(alg)
    assert not rep.ok
    assert any("composition" in f for f in rep.failures)


# ------------------------------------------------------------ theta_eval


def test_theta_unit_and_square_zero():
    op = uass_operad(QQ, 3)
    alg = dual_numbers_algebra(QQ, op)
    x = alg.basis_element("*", "x")
    assert alg.theta_eval([x], op.unit()).vec == {"x": QQ.one}
    id2 = op.basis_element(single_sig(2), (1, 2))
    assert alg.theta_eval([x, x], id2).vec == {}
    one = alg.basis_element("*", "1")
    assert alg.theta_eval([one, x], id2).vec == {"x": QQ.one}


def test_theta_nullary_gives_unit():
    op = uass_operad(QQ, 2)
    alg = dual_numbers_algebra(QQ, op)
    empty = op.basis_element(single_sig(0), ())
    assert alg.theta_eval([], empty).vec == {"1": QQ.one}


def test_module_action_values():
    op = module_operad(QQ, 3)
    alg = augmentation_module_pair(QQ, op)
    y = op.basis_element((("a", "m"), "m"), (1,))
    m0 = alg.basis_element("m", "m0")
    assert alg.theta_eval([alg.basis_element("a", "1"), m0], y).vec == {"m0": QQ.one}
    assert alg.theta_eval([alg.basis_element("a", "x"), m0], y).vec == {}


def test_theta_mismatch_errors():
    op = module_operad(QQ, 3)
    alg = augmentation_module_pair(QQ, op)
    y = op.basis_element((("a", "m"), "m"), (1,))
    m0 = alg.basis_element("m", "m0")
    with pytest.raises(AlgebraError, match="arity"):
        alg.theta_eval([m0], y)
    with pytest.raises(AlgebraError, match="sort"):
        alg.theta_eval([m0, m0], y)
    with pytest.raises(AlgebraError, match="basis"):
        alg.basis_element("a", "nope")


# ------------------------------------------------------------ free algebras


def test_free_unit_operad_is_identity_functor():
    x = acyclic_pair(QQ)
    fa = free(x, unit_operad(QQ))
    p = fa.part(1)
    assert p.complex.dim() == 2
    assert sorted(p.complex.degrees.values()) == [0, 1]
    assert p.complex.homology()[0].dim == 0
    assert p.complex.homology()[1].dim == 0


def test_free_ass_on_ground_is_one_dimensional():
    fa = free(kline(QQ), ass_operad(QQ, 4))
    dims = {n: fa.part(n).complex.dim() for n in range(1, 5)}
    assert dims == {1: 1, 2: 1, 3: 1, 4: 1}


def test_free_ass_f2_two_dim_arity2():
    x = ChainComplex(F2, {"u": 0, "v": 0}, {})
    fa = free(x, ass_operad(F2, 3))
    assert fa.part(2).complex.dim() == 4


def test_free_uass_nullary_part():
    fa = free(kline(QQ), uass_operad(QQ, 3))
    assert fa.part(0).complex.dim() == 1


def test_free_com_odd_generator_truncates():
    xi = ChainComplex(QQ, {"xi": 1}, {})
    fa = free(xi, com_operad(QQ, 3))
    assert fa.part(1).complex.dim() == 1
    assert fa.part(2).complex.dim() == 0
    assert fa.part(3).complex.dim() == 0


def test_orbit_method_rejects_a_non_free_action():
    # Com's trivial action certified as a free module
    with pytest.raises(AlgebraError,
                       match=r"\(\('\*', '\*'\), '\*'\):'mu2' has size 1, want 2"):
        free(kline(QQ), recertified(com_operad(QQ, 3), "free-module"))


def test_auto_resolves_com_to_elimination(routes):
    assert free(kline(QQ), com_operad(QQ, 3)).part(2).reps
    assert routes == ["elimination"]


def test_free_com_even_generator_is_polynomial():
    fa = free(kline(QQ, deg=0), com_operad(QQ, 3))
    assert [fa.part(n).complex.dim() for n in (1, 2, 3)] == [1, 1, 1]


def test_free_methods_agree_up_to_isomorphism(routes):
    x = ChainComplex(F3, {"u": 0, "v": 1}, {"v": {"u": F3.one}})
    op = ass_operad(F3, 3)
    fa_e = free(x, recertified(op, "asserted"))
    fa_o = free(x, op)
    for n in (1, 2, 3):
        pe, po = fa_e.part(n), fa_o.part(n)
        assert routes[-2:] == ["elimination", "orbit"]
        assert pe.complex.dim() == po.complex.dim()
        entries = {r: po.project({r: 1}) for r in pe.complex.basis()}
        phi = ChainMap.from_raw(pe.complex, po.complex, entries)
        back = {r: pe.project({r: 1}) for r in po.complex.basis()}
        psi = ChainMap.from_raw(po.complex, pe.complex, back)
        for r in pe.complex.basis():
            assert psi.apply(phi.apply({r: F3.one})) == {r: F3.one}
        for r in po.complex.basis():
            assert phi.apply(psi.apply({r: F3.one})) == {r: F3.one}


@pytest.mark.parametrize("route,certificate",
                         [("elimination", "asserted"), ("orbit", "free-module")],
                         ids=["elimination", "orbit"])
def test_projection_kills_swaps(route, certificate, routes):
    x = ChainComplex(QQ, {"u": 0, "xi": 1}, {})
    fa = free(x, recertified(ass_operad(QQ, 3), certificate))
    for n in (2, 3):
        p = fa.part(n)
        for name in p.big_degrees:
            for k in range(1, n):
                img = fa._diagonal_swap(name, k)
                lhs = p.project({name: QQ.one.val})
                rhs = p.project(img)
                assert lhs == rhs, (name, k)
    assert set(routes) == {route}


def test_free_odd_generator_sign_quotient():
    xi = ChainComplex(QQ, {"xi": 1}, {})
    fa = free(xi, ass_operad(QQ, 2))
    p = fa.part(2)
    assert p.complex.dim() == 1
    (rep,) = p.complex.basis()
    sig = single_sig(2)
    other = (sig, ("xi", "xi"), (2, 1))
    assert p.project({other: QQ.one.val}) == {rep: -QQ.one.val}


def test_free_as_algebra_verifies():
    fa = free(kline(QQ), uass_operad(QQ, 3))
    alg = free_as_algebra(fa)
    rep = verify_algebra(alg)
    assert rep.ok, rep.failures[:5]


def test_free_as_algebra_verifies_two_dim_f2():
    x = ChainComplex(F2, {"u": 0, "v": 0}, {})
    alg = free_as_algebra(free(x, ass_operad(F2, 2)))
    rep = verify_algebra(alg)
    assert rep.ok, rep.failures[:5]


def test_free_parts_acyclic_for_acyclic_generators():
    for low in (0, 1, 3):
        x = acyclic_pair(F2, low)
        fa = free(x, ass_operad(F2, 4))
        for n in range(1, 5):
            hom = fa.part(n).complex.homology()
            assert all(h.dim == 0 for h in hom.values()), (low, n)


def test_free_map_of_equivalence_is_equivalence():
    src = ChainComplex(F2, {"g": 0, "u": 0, "v": 1}, {"v": {"u": F2.one}})
    dst = kline(F2)
    f = ChainMap(src, dst, {"g": {"g": F2.one}})
    op = ass_operad(F2, 3)
    fa_x, fa_y = free(src, op), free(dst, op)
    for n in (1, 2, 3):
        fm = free_map(f, fa_x, fa_y, n)
        verdicts = fm.is_quasi_iso(sorted(set(
            list(fm.source.degrees.values()) + list(fm.target.degrees.values())
        )))
        assert all(v.isomorphism for v in verdicts.values()), n


def test_free_two_sorted_module_pattern():
    op = module_operad(QQ, 3)
    gens = {"a": kline(QQ, "b"), "m": kline(QQ, "w")}
    fa = free(gens, op)
    assert fa.part(1, "a").complex.dim() == 1
    assert fa.part(2, "a").complex.dim() == 1
    assert fa.part(0, "a").complex.dim() == 1
    # one orbit across the two m-placements in arity 2
    assert fa.part(2, "m").complex.dim() == 1
    assert fa.part(1, "m").complex.dim() == 1


def test_part_determinism():
    x = ChainComplex(F2, {"u": 0, "v": 0}, {})
    a = free(x, ass_operad(F2, 3)).part(3)
    b = free(x, ass_operad(F2, 3)).part(3)
    assert list(a.complex.basis()) == list(b.complex.basis())
    assert a.complex.d == b.complex.d
