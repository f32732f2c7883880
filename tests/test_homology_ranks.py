"""Homology read off ranks, against the cycle-representative oracle.

``ChainComplex.homology`` reads dim H_k = #C_k - rk d_k - rk d_{k+1} off
memoized ranks, and ``ChainMap.is_quasi_iso`` reads the induced rank as
rk(B + f(Z)) - rk B.  ``homology_oracle`` keeps the route through explicit
cycle representatives and a tracked elimination; the two are compared on
the bar windows and carriers of the golden manifests, on free-algebra
parts, on random complexes and on chain maps of degree 0 and -1.  The
count tests show each differential eliminated once per complex.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import homology_oracle as oracle
from kzbar import complexes, linalg
from kzbar.catalog import dual_numbers_algebra, uass_operad
from kzbar.complexes import ChainComplex, ChainMap, ComplexError, direct_sum
from kzbar.dstructures import bar_dstructure, delta_prime
from kzbar.fields import GF, QQ
from kzbar.manifest import build, load_builtin, parse_manifest

GOLDEN = Path(__file__).resolve().parent / "golden"
FIELDS = [GF(2), GF(3), QQ]

# The golden manifests up to window 5, and the window 6 one.
MANIFESTS = ("uass_dual_numbers", "pair_q_w3", "pair_f3_w2", "dual_w4",
             "bar_w5", "unit_w5", "bar_w6")


def _algebras(name):
    """(manifest, algebras) of a golden manifest; the bar windows need
    only the algebras, and build constructs no D-structure unread."""
    path = GOLDEN / f"{name}.kz"
    m = parse_manifest(path.read_text() if path.exists() else load_builtin(name))
    return m, build(m).algebras


def _quotient(m, alg):
    w = m.window
    return alg.bar.bar_quotient(w.n_max, w.deg_lo, w.deg_hi)


def _span(comp, margin=1):
    lo, hi = comp.degree_range()
    return range(lo - margin, hi + margin + 1)


def _rows(comp, degrees=None):
    return {k: (h.dim, h.boundary_rank) for k, h in comp.homology(degrees).items()}


def _assert_maps_agree(cm, degrees):
    assert cm.is_quasi_iso(degrees) == oracle.is_quasi_iso(cm, degrees)


@pytest.mark.parametrize("name", MANIFESTS)
def test_golden_bar_windows_and_carriers_match_the_oracle(name):
    m, algebras = _algebras(name)
    for alg in algebras.values():
        for comp in alg.carrier.values():
            assert _rows(comp) == oracle.homology(comp)
        try:
            quotient = _quotient(m, alg)
        except ComplexError:
            continue
        degrees = _span(quotient)
        assert _rows(quotient, degrees) == oracle.homology(quotient, degrees)
        _assert_maps_agree(alg.bar.mu_chain_map(quotient), degrees)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_free_parts_of_the_dual_numbers_match_the_oracle(field):
    fa = bar_dstructure(dual_numbers_algebra(field, uass_operad(field, 4)), 3).free
    for n in range(0, 4):
        comp = fa.part(n).complex
        assert _rows(comp) == oracle.homology(comp)


def _unit():
    m, algebras = _algebras("unit_w5")
    return m, algebras["k"]


def test_unit_evaluation_matches_the_oracle_on_stable_degrees():
    m, alg = _unit()
    quotient = _quotient(m, alg)
    stable = alg.bar.stable_degrees(m.window.n_max)
    assert stable == [0, 1, 2]
    mu = alg.bar.mu_chain_map(quotient)
    verdicts = mu.is_quasi_iso(stable)
    assert verdicts == oracle.is_quasi_iso(mu, stable)
    assert [verdicts[k].induced_rank for k in stable] == [1, 0, 0]


def test_delta_prime_of_degree_minus_one_matches_the_oracle():
    m, alg = _unit()
    ds = bar_dstructure(alg, m.window.n_max)
    for cm in delta_prime(ds, m.window.n_max).values():
        assert cm.degree == -1
        _assert_maps_agree(cm, _span(cm.source, margin=2))


def test_induced_rank_strictly_between_zero_and_both_dims():
    F = GF(3)
    C = ChainComplex(F, {"x1": 0, "x2": 0, "e": 1}, {})
    D = ChainComplex(F, {"y1": 0, "y2": 0, "u": 1, "v": 0}, {"u": {"v": F.one}})
    f = ChainMap(C, D, {"x1": {"y1": F.one}, "x2": {"y1": -F.one}})
    v = f.is_quasi_iso([0])[0]
    assert (v.source_dim, v.target_dim, v.induced_rank) == (2, 2, 1)
    assert not v.isomorphism
    _assert_maps_agree(f, [-1, 0, 1, 2])


def test_a_degree_outside_the_range_has_zero_homology():
    C = ChainComplex(QQ, {"e": 1, "v": 0, "w": 0}, {"e": {"v": QQ.one}})
    H = C.homology([-3, 0, 1, 7])
    assert {k: (h.dim, h.boundary_rank) for k, h in H.items()} == {
        -3: (0, 0), 0: (1, 1), 1: (0, 0), 7: (0, 0)}
    f = ChainMap(C, C, {n: {n: QQ.one} for n in C.basis()})
    v = f.is_quasi_iso([7])[7]
    assert (v.source_dim, v.target_dim, v.induced_rank, v.isomorphism) == (0, 0, 0, True)


def test_an_escaped_cycle_is_refused():
    """The guard in ``is_quasi_iso`` stays a check: a map that slipped past
    the chain-map law and sends a cycle off the cycles is refused."""
    F = QQ
    C = ChainComplex(F, {"x": 0})
    D = ChainComplex(F, {"e": 0, "v": -1}, {"e": {"v": F.one}})
    f = ChainMap(C, ChainComplex(F, {"e": 0, "v": -1}), {"x": {"e": F.one}})
    f.target = D
    with pytest.raises(ComplexError, match="escaped the cycle space"):
        f.is_quasi_iso([0])
    with pytest.raises(ComplexError, match="escaped the cycle space"):
        oracle.is_quasi_iso(f, [0])


# ------------------------------------------------------ random complexes


@st.composite
def complexes_(draw):
    """A random complex over F2, F3 or Q on up to four consecutive degrees:
    the lowest d is a random matrix, and each d above it sends every
    generator to a random combination of a kernel basis of the d below,
    so d.d = 0 by construction.  Empty complexes, zero differentials and
    single degrees are drawn too."""
    F = draw(st.sampled_from(FIELDS))
    lo = draw(st.integers(-2, 2))
    dims = draw(st.lists(st.integers(0, 4), max_size=4))
    names = [[f"c{lo + i}_{j}" for j in range(n)] for i, n in enumerate(dims)]
    degrees = {x: lo + i for i, layer in enumerate(names) for x in layer}
    scalar = st.integers(-2, 2).map(F.scalar)
    d = {}
    for i in range(1, len(names)):
        if i == 1:
            for x in names[i]:
                d[x] = {y: draw(scalar) for y in names[i - 1]}
            continue
        below = ChainComplex(F, degrees, d)
        ker = oracle.cycles(below, lo + i - 1)
        for x in names[i]:
            col = {}
            for z in ker:
                linalg.vec_iaxpy(col, draw(scalar), z)
            d[x] = col
    return ChainComplex(F, degrees, d)


@settings(deadline=None, max_examples=60)
@given(complexes_())
def test_random_complexes_match_the_oracle(C):
    degrees = _span(C)
    assert _rows(C, degrees) == oracle.homology(C, degrees)


@settings(deadline=None, max_examples=40)
@given(complexes_(), st.integers(-2, 2))
def test_random_chain_maps_match_the_oracle(C, s):
    F = C.field
    one = F.one
    degrees = _span(C)
    ident = ChainMap(C, C, {n: {n: one} for n in C.basis()})
    zero = ChainMap(C, C, {})
    S = direct_sum({"a": C, "b": C})
    proj = ChainMap(S, C, {("a", n): {n: one} for n in C.basis()})
    fold = ChainMap(S, C, {**{("a", n): {n: one} for n in C.basis()},
                           **{("b", n): {n: F.scalar(s)} for n in C.basis()}})
    for cm in (ident, zero, proj, fold):
        _assert_maps_agree(cm, degrees)
    dims = {k: h.dim for k, h in C.homology(degrees).items()}
    fv = fold.is_quasi_iso(degrees)
    assert all(fv[k].induced_rank == dims[k] and fv[k].source_dim == 2 * dims[k]
               for k in degrees)


# ------------------------------------------------ one elimination per d


@pytest.fixture
def eliminations(monkeypatch):
    """Calls to the two elimination entry points, ``linalg.rank_raw`` for a
    rank and ``linalg.echelon_raw`` for a kernel, also through references
    that ``complexes`` holds of its own."""
    calls = []
    for name in ("rank_raw", "echelon_raw"):
        orig = getattr(linalg, name)

        def counted(*args, _orig=orig, **kwargs):
            calls.append(1)
            return _orig(*args, **kwargs)

        for mod in (linalg, complexes):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted)
    return calls


def test_a_homology_sweep_eliminates_each_differential_once(eliminations):
    m, algebras = _algebras("bar_w5")
    (alg,) = algebras.values()
    quotient = _quotient(m, alg)
    lo, hi = m.window.deg_lo, m.window.deg_hi
    want = oracle.homology(quotient, range(lo, hi + 1))
    eliminations.clear()
    assert _rows(quotient, range(lo, hi + 1)) == want
    assert 0 < len(eliminations) <= hi - lo + 2
    eliminations.clear()
    quotient.homology(range(lo, hi + 1))
    assert eliminations == []


def test_a_verdict_after_homology_eliminates_twice_per_degree(eliminations):
    m, alg = _unit()
    quotient = _quotient(m, alg)
    stable = alg.bar.stable_degrees(m.window.n_max)
    mu = alg.bar.mu_chain_map(quotient)
    quotient.homology(stable)
    mu.target.homology(stable)
    eliminations.clear()
    mu.is_quasi_iso(stable)
    assert len(eliminations) <= 2 * len(stable)


def test_a_cold_verdict_eliminates_each_source_differential_once(eliminations):
    """The kernel elimination at k seeds rk d_k, so a verdict on a cold
    source eliminates d_k once per degree: a kernel and the combined rank
    per degree, plus rk d_{top+1}, with the target's ranks warm."""
    m, alg = _unit()
    quotient = _quotient(m, alg)
    stable = alg.bar.stable_degrees(m.window.n_max)
    mu = alg.bar.mu_chain_map(quotient)
    mu.target.homology(stable)
    eliminations.clear()
    verdicts = mu.is_quasi_iso(stable)
    assert len(eliminations) == 2 * len(stable) + 1
    assert list(verdicts) == stable
    assert verdicts == oracle.is_quasi_iso(mu, stable)
    fresh = _quotient(m, _unit()[1])
    for k in stable:
        assert quotient.d_rank(k) == fresh.d_rank(k), k
