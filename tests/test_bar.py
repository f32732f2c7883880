"""Bar construction: frozen small-case values, d.d = 0 and dh + hd = Id
elementwise, normalization against a raw-intertwiner orbit oracle, the
quotient complex, mu, and the algebra action on the quotient."""

from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bar_identities import dd_and_unit

from kzbar.algebras import Algebra, verify_algebra
from kzbar.bar import BarComplex, BarError, _is_bare
from kzbar.catalog import (
    algebra_as_operad,
    ass_operad,
    augmentation_module_pair,
    com_operad,
    dual_numbers_algebra,
    module_operad,
    uass_operad,
    unit_operad,
    word_algebra,
)
from kzbar.complexes import ChainComplex
from kzbar.dstructures import _action_basis, bar_algebra_action
from kzbar.fields import GF, QQ
from kzbar.linalg import raw_iaxpy, vec_box, vec_unbox
from kzbar.operads import CapExceeded, Operad, single_sig, verify_operad
from kzbar.signs import relabel, word
from kzbar.trees import Tree, enumerate_trees, is_intertwiner, validate

F2 = GF(2)
F3 = GF(3)


# ------------------------------------------------------------- builders


def unit_bar(field):
    op = unit_operad(field)
    from kzbar.catalog import ground_algebra

    return BarComplex(ground_algebra(field, op))


def dual_bar(field, cap=4):
    return BarComplex(dual_numbers_algebra(field, uass_operad(field, cap)))


def exterior_bar(field, cap=4):
    """Odd generator e with de = 1; the all-sign-paths workhorse."""
    one = field.one
    op = uass_operad(field, cap)
    alg = word_algebra(
        field, op,
        degrees={"1": 0, "e": 1},
        mult={("1", "1"): {"1": one}, ("1", "e"): {"e": one},
              ("e", "1"): {"e": one}},
        unit_name="1",
        d={"e": {"1": one}},
        name="exterior-exact",
    )
    return BarComplex(alg)


def module_bar(field, cap=4):
    return BarComplex(
        augmentation_module_pair(field, module_operad(field, cap)))


def line_module_bar(field):
    """1-dim module over the dual numbers seen as an arity-1 operad;
    every tree is a chain, homology is visible by hand."""
    one = field.one
    op = algebra_as_operad(
        field,
        degrees={"1": 0, "x": 0},
        mult={("1", "1"): {"1": one}, ("1", "x"): {"x": one},
              ("x", "1"): {"x": one}},
        unit_name="1",
        name="dual-line",
    )
    carrier = {"*": ChainComplex(field, {"m": 0}, {})}

    def theta_rule(c_sig, c_name, xs):
        return {} if c_name == "x" else {"m": one}

    return Algebra(op, carrier, theta_rule, name="line-module")


def chain_tree(n):
    return validate(n, tuple(range(2, n + 1)), frozenset({1}))


def ckey(n):
    return (chain_tree(n), ("1",) * n)


def vec_eq(a, b):
    return dict(a) == dict(b)


BARE = ckey(1)


# ------------------------------------------------------- frozen small cases


def test_degrees_and_words_on_unit_chains():
    B = unit_bar(QQ)
    assert B.degree_of(*BARE) == 0
    assert B.basis_word(*BARE) == word((), ())
    assert B.degree_of(*ckey(3)) == 2
    assert B.basis_word(*ckey(3)) == word((2, 3), ())


def test_homotopy_of_bare_is_the_two_chain():
    B = unit_bar(QQ)
    assert B.homotopy_key(BARE) == {ckey(2): 1}
    assert B.basis_word(*ckey(2)) == word((2,), ())


def test_unit_chain_differential_frozen():
    # the coefficient pattern 1, 0, 1, 0 down the chain tower is forced
    # by dh + hd = Id once h is the graft
    B = unit_bar(QQ)
    assert B.differential_key(ckey(2)) == {BARE: 1}
    assert B.differential_key(ckey(3)) == {}
    assert B.differential_key(ckey(4)) == {ckey(3): 1}
    assert B.differential_key(ckey(5)) == {}
    assert B.differential_key(ckey(6)) == {ckey(5): 1}


def test_unit_chain_homotopy_frozen():
    B = unit_bar(QQ)
    for n in range(1, 6):
        sign = 1 if (n - 1) % 2 == 0 else -1
        assert B.homotopy_key(ckey(n)) == {ckey(n + 1): sign}


def test_unit_basis_is_the_chain_tower():
    B = unit_bar(QQ)
    assert B.enumerate_basis(5) == [ckey(n) for n in range(1, 6)]
    assert B.stable_degrees(6) == [0, 1, 2, 3]
    assert dual_bar(QQ, 3).stable_degrees(9) == []


# ------------------------------------------------- the two central identities


EXAMPLES = [
    ("unit-Q", lambda: unit_bar(QQ)),
    ("unit-F2", lambda: unit_bar(F2)),
    ("unit-F3", lambda: unit_bar(F3)),
    ("dual-Q", lambda: dual_bar(QQ)),
    ("dual-F2", lambda: dual_bar(F2)),
    ("dual-F3", lambda: dual_bar(F3)),
    ("exterior-Q", lambda: exterior_bar(QQ)),
    ("exterior-F3", lambda: exterior_bar(F3)),
    ("module-Q", lambda: module_bar(QQ)),
    ("module-F2", lambda: module_bar(F2)),
    ("module-F3", lambda: module_bar(F3)),
    ("line-Q", lambda: BarComplex(line_module_bar(QQ))),
    ("line-F2", lambda: BarComplex(line_module_bar(F2))),
]


@pytest.mark.parametrize("make", [m for _, m in EXAMPLES],
                         ids=[n for n, _ in EXAMPLES])
def test_differential_squares_to_zero(make):
    B = make()
    basis = set(B.enumerate_basis(4))
    for key in basis:
        deg = B.degree_of(*key)
        for k2 in B.differential_key(key):
            assert k2 in basis
            assert B.degree_of(*k2) == deg - 1
        assert dd_and_unit(B, key)[0] == {}


@pytest.mark.parametrize("make", [m for _, m in EXAMPLES],
                         ids=[n for n, _ in EXAMPLES])
def test_graft_homotopy_contracts_everything(make):
    B = make()
    grafted = set(B.enumerate_basis(5))
    for key in B.enumerate_basis(4):
        for k2 in B.homotopy_key(key):
            assert k2 in grafted
            assert B.degree_of(*k2) == B.degree_of(*key) + 1
        assert dd_and_unit(B, key)[1] == {}


# --------------------------------------------------------- normalization


def _labeled_nodes(B, n):
    """Every labeling of every planar tree, canonical or not."""
    out = []
    for t in enumerate_trees(n):
        pools = []
        for v in range(1, n + 1):
            if t.is_leaf(v):
                comp = B.algebra.carrier.get(B._sort_of(t, v))
            else:
                comp = B.operad.component(B._component_sig(t, v))
            if comp is None or not comp.degrees:
                pools = None
                break
            pools.append(sorted(comp.degrees, key=str))
        if pools is None:
            continue
        for combo in iproduct(*pools):
            out.append((t, combo))
    return out


def _raw_transport(B, t, labels, sigma, t2):
    """Push a labeled tree through an intertwiner from first principles:
    permute the word with relabel, act on each vertex label with the
    operad's own apply_perm.  Returns a BarVec of raw values."""
    w = relabel(B.basis_word(t, labels), lambda k: sigma[k - 1], target=t2)
    new_labels = {}
    for v in range(1, t.n + 1):
        tv = sigma[v - 1]
        if t.is_leaf(v):
            new_labels[tv] = [(labels[v - 1], B.field.one)]
            continue
        cs = t.children(v)
        images = [sigma[c - 1] for c in cs]
        order = sorted(range(len(cs)), key=lambda i: images[i])
        pi = [0] * len(cs)
        for new_pos, old_pos in enumerate(order):
            pi[old_pos] = new_pos + 1
        el = B.operad.basis_element(B._component_sig(t, v), labels[v - 1])
        moved = B.operad.apply_perm(el, tuple(pi))
        new_labels[tv] = sorted(moved.vec.items(), key=lambda kv: str(kv[0]))
    out = {}
    choices = [new_labels[v] for v in range(1, t2.n + 1)]
    for combo in iproduct(*choices):
        coeff = w.sign
        for _, c in combo:
            coeff = coeff * c.val
        lab2 = tuple(nm for nm, _ in combo)
        raw_iaxpy(out, coeff, B.normalize_term(t2, B.basis_word(t2, lab2), lab2,
                                               B.field.one.val), B.field.p)
    return out


@pytest.mark.parametrize("make", [lambda: dual_bar(QQ, 3),
                                  lambda: exterior_bar(F3, 3)],
                         ids=["dual-Q", "exterior-F3"])
def test_normalize_agrees_with_every_intertwiner(make):
    from itertools import permutations

    B = make()
    for n in range(1, 4):
        trees = enumerate_trees(n)
        nodes = _labeled_nodes(B, n)
        for t, labels in nodes:
            base = B.normalize_term(t, B.basis_word(t, labels), labels,
                                    B.field.one.val)
            for t2 in trees:
                for sigma in permutations(range(1, n + 1)):
                    if not is_intertwiner(t, t2, tuple(sigma)):
                        continue
                    moved = _raw_transport(B, t, labels, tuple(sigma), t2)
                    assert moved == base, (t, labels, sigma)


@pytest.mark.parametrize("make", [lambda: dual_bar(QQ, 3),
                                  lambda: exterior_bar(F3, 3)],
                         ids=["dual-Q", "exterior-F3"])
def test_enumerate_basis_matches_the_orbit_partition(make):
    B = make()
    for n in range(1, 4):
        keys = set()
        for t, labels in _labeled_nodes(B, n):
            v = B.normalize_term(t, B.basis_word(t, labels), labels,
                                 B.field.one.val)
            assert len(v) <= 1
            for key, c in v.items():
                assert B.field.scalar(c) in (B.field.one, -B.field.one)
                keys.add(key)
        expect = {k for k in B.enumerate_basis(n) if k[0].n == n}
        assert keys == expect


def test_normalize_idempotent_on_basis():
    for B in (dual_bar(QQ), module_bar(F3)):
        for t, labels in B.enumerate_basis(4):
            assert B.normalize_term(t, B.basis_word(t, labels), labels, 1) == {
                (t, labels): 1}


def test_labeled_counts_by_hand():
    # n = 1: two bare labels and the nullary stump; n = 2: the labeled
    # chain twice plus the stump chain; n = 3: 4 bush orbits, 4 mixed
    # two-level trees, 1 double stump, 2 chains, 1 stump chain
    B = dual_bar(QQ, 3)
    per_n = {n: 0 for n in range(1, 4)}
    for t, _ in B.enumerate_basis(3):
        per_n[t.n] += 1
    assert per_n == {1: 3, 2: 3, 3: 12}


def test_odd_leaf_swap_freezes_the_sign():
    B = exterior_bar(QQ, 3)
    bush = validate(3, (3, 3), frozenset({1, 2}))
    got = B.normalize_term(bush, B.basis_word(bush, ("e", "e", (2, 1))),
                           ("e", "e", (2, 1)), 1)
    assert got == {(bush, ("e", "e", (1, 2))): -1}


def com_line_bar(cap=3):
    """An odd line xi over Com over Q: swapping two xi leaves under the
    fixed label mu2 has sign -1, a torsion symmetry."""
    one = QQ.one
    op = com_operad(QQ, cap)
    carrier = {"*": ChainComplex(QQ, {"1": 0, "xi": 1}, {})}

    def theta_rule(c_sig, c_name, xs):
        names = [x for x in xs if x != "1"]
        if names.count("xi") >= 2 or len(names) > 1:
            return {}
        return {names[0] if names else "1": one}

    return BarComplex(Algebra(op, carrier, theta_rule, name="com-line"))


def test_torsion_symmetry_kills_the_term_over_q():
    one = QQ.one.val
    B = com_line_bar()
    bush = validate(3, (3, 3), frozenset({1, 2}))
    dead = B.normalize_term(bush, B.basis_word(bush, ("xi", "xi", "mu2")),
                            ("xi", "xi", "mu2"), one)
    assert dead == {}
    alive = B.normalize_term(bush, B.basis_word(bush, ("1", "xi", "mu2")),
                             ("1", "xi", "mu2"), one)
    assert len(alive) == 1


def test_non_monomial_symmetry_is_rejected():
    one = QQ.one
    comp1 = ChainComplex(QQ, {"i": 0}, {})
    comp2 = ChainComplex(QQ, {"p": 0, "q": 0}, {})

    def gamma(y_sig, y_name, xs):
        return {y_name: one}

    def sym(sig, k, name):
        return {"p": one, "q": one}

    op = Operad(QQ, ("*",), 2,
                {single_sig(1): comp1, single_sig(2): comp2}, {"*": "i"},
                gamma, sym, "asserted", name="mixing")
    carrier = {"*": ChainComplex(QQ, {"1": 0}, {})}
    B = BarComplex(Algebra(op, carrier, lambda s, c, xs: {"1": one}))
    bush = validate(3, (3, 3), frozenset({1, 2}))
    with pytest.raises(BarError, match="monomial"):
        B.normalize_term(bush, B.basis_word(bush, ("1", "1", "p")),
                         ("1", "1", "p"), one.val)


# ------------------------------------------------------------- quotient


def test_unit_quotient_homology_window():
    for field in (QQ, F2):
        B = unit_bar(field)
        C = B.bar_quotient(6, -1, 4)
        hom = C.homology([0, 1, 2, 3])
        assert {k: h.dim for k, h in hom.items()} == {0: 1, 1: 0, 2: 0, 3: 0}


def test_line_module_quotient_homology_window():
    for field in (QQ, F3):
        B = BarComplex(line_module_bar(field))
        assert B.stable_degrees(6) == [0, 1, 2, 3]
        C = B.bar_quotient(6, -1, 4)
        assert C.dim(0) == 2 and C.dim(1) == 4
        hom = C.homology([0, 1, 2, 3])
        assert {k: h.dim for k, h in hom.items()} == {0: 1, 1: 0, 2: 0, 3: 0}


def test_empty_window_is_the_zero_complex():
    C = unit_bar(QQ).bar_quotient(3, 5, 7)
    assert C.dim() == 0


def test_quotient_window_is_a_subcomplex_of_the_full_differential():
    # dropping bare terms and capping n must be the only edits; the
    # suspension renumbers degrees but keeps the differential
    B = dual_bar(QQ)
    C = B.bar_quotient(4, -1, 3)
    for key in C.basis():
        kept = {k: c for k, c in B.differential_key(key).items()
                if not _is_bare(k) and k[0].n <= 4}
        assert C.raw_d.get(key, {}) == kept


# ------------------------------------------------------------------- mu


def test_mu_frozen_values():
    B = dual_bar(QQ)
    bush = validate(3, (3, 3), frozenset({1, 2}))
    assert B.mu_key((bush, ("1", "x", (1, 2)))) == {("*", "x"): 1}
    chain2 = (chain_tree(2), ("x", (1,)))
    assert B.mu_key(chain2) == {("*", "x"): 1}
    stump = (validate(1, (), frozenset()), ((),))
    assert B.mu_key(stump) == {("*", "1"): 1}
    assert B.mu_key(ckey(3)) == {}
    E = exterior_bar(QQ)
    odd2 = (chain_tree(2), ("e", (1,)))
    assert E.mu_key(odd2) == {("*", "e"): -1}
    with pytest.raises(BarError, match="bare"):
        B.mu_key(BARE)


@pytest.mark.parametrize(
    "make",
    [lambda: dual_bar(QQ), lambda: dual_bar(F2), lambda: exterior_bar(QQ),
     lambda: module_bar(F3), lambda: BarComplex(line_module_bar(QQ))],
    ids=["dual-Q", "dual-F2", "exterior-Q", "module-F3", "line-Q"])
def test_mu_is_a_chain_map(make):
    B = make()
    P = B.field.p
    for key in B.enumerate_basis(4):
        if _is_bare(key):
            continue
        lhs, rhs = {}, {}
        for k2, c in B.differential_key(key).items():
            if not _is_bare(k2):
                raw_iaxpy(lhs, c, B.mu_key(k2), P)
        for (srt, nm), c in B.mu_key(key).items():
            dv = B.algebra.carrier[srt].raw_d.get(nm, {})
            raw_iaxpy(rhs, c, {(srt, r): x for r, x in dv.items()}, P)
        assert lhs == rhs, key


# ------------------------------------------------------------------ action


def test_action_unit_is_the_identity():
    B = dual_bar(F3)
    u = B.operad.unit("*")
    for key in B.enumerate_basis(3):
        if key[0].n == 1 and 1 in key[0].L:
            continue
        x = {key: B.field.one}
        assert vec_eq(bar_algebra_action(B, [x], u), x)


def test_action_join_of_two_chains_frozen():
    B = dual_bar(QQ)
    one = QQ.one
    c3 = {(chain_tree(3), ("1", (1,), (1,))): one}
    c = B.operad.basis_element((("*", "*"), "*"), (1, 2))
    got = bar_algebra_action(B, [c3, c3], c)
    t_new = validate(5, (2, 5, 4, 5), frozenset({1, 3}))
    assert vec_eq(got, {(t_new, ("1", (1,), "1", (1,), (1, 2))): one})
    assert set(got) <= set(B.enumerate_basis(5))


def _leibniz_defect(B, keys, c):
    """d(act) minus the Koszul sum of act-with-d-in-one-slot, on raw
    values with bare terms dropped; signs read shifted degrees, the
    grading the quotient actually carries."""
    F = B.field
    vs = [{k: F.one} for k in keys]
    out = {}
    for k, x in bar_algebra_action(B, vs, c).items():
        raw_iaxpy(out, x.val, B.differential_key(k), F.p)
    prefix = 0
    for q, k in enumerate(keys):
        dq = {k2: x for k2, x in B.differential_key(k).items() if not _is_bare(k2)}
        if dq:
            slots = list(vs)
            slots[q] = vec_box(dq, F)
            sgn = 1 if prefix % 2 == 0 else -1
            raw_iaxpy(out, -sgn, vec_unbox(bar_algebra_action(B, slots, c), F), F.p)
        prefix += B.degree_of(*k) - 1
    return {k: x for k, x in out.items() if not _is_bare(k)}


@pytest.mark.parametrize("make", [lambda: exterior_bar(QQ),
                                  lambda: exterior_bar(F3),
                                  lambda: dual_bar(F2)],
                         ids=["exterior-Q", "exterior-F3", "dual-F2"])
def test_action_is_a_chain_map(make):
    B = make()
    keys = [k for k in B.enumerate_basis(3)
            if not (k[0].n == 1 and 1 in k[0].L)]
    c2 = B.operad.basis_element((("*", "*"), "*"), (1, 2))
    c3 = B.operad.basis_element((("*", "*", "*"), "*"), (3, 1, 2))
    for k1 in keys:
        for k2 in keys:
            assert _leibniz_defect(B, [k1, k2], c2) == {}, (k1, k2)
    small = [k for k in keys if k[0].n <= 2]
    for k1 in small:
        for k2 in small:
            for k3 in small:
                assert _leibniz_defect(B, [k1, k2, k3], c3) == {}


def test_action_respects_the_vertex_cap():
    B = dual_bar(QQ)
    c3 = {(chain_tree(3), ("1", (1,), (1,))): QQ.one}
    c = B.operad.basis_element((("*", "*"), "*"), (1, 2))
    with pytest.raises(CapExceeded):
        bar_algebra_action(B, [c3, c3], c, n_cap=4)


def test_action_rejects_bare_factors_and_raw_labels():
    B = dual_bar(QQ)
    with pytest.raises(BarError, match="quotient"):
        bar_algebra_action(B, [{BARE: QQ.one}], B.operad.unit("*"))
    with pytest.raises(BarError, match="operad element"):
        bar_algebra_action(B, [{ckey(2): QQ.one}], (1, 2))


@pytest.mark.parametrize("make", [lambda: exterior_bar(F3),
                                  lambda: module_bar(QQ)],
                         ids=["exterior-F3", "module-pair-Q"])
def test_action_join_matches_the_hand_built_oracle(make):
    import action_oracle

    B = make()
    by_root: dict = {}
    for key in B.enumerate_basis(3):
        if not _is_bare(key):
            by_root.setdefault(B._sort_of(key[0], key[0].n), []).append(key)
    checked = 0
    for sig in B.operad.signatures():
        if len(sig[0]) > 2:
            continue
        for c_name in B.operad.components[sig].basis():
            for factors in iproduct(*(by_root.get(s, []) for s in sig[0])):
                want = action_oracle.action_basis(B, list(factors), sig, c_name)
                got = _action_basis(B, list(factors), sig, c_name, None)
                assert got == want, (factors, sig, c_name)
                checked += bool(want)
    assert checked > 100


# ------------------------------------------------------------ hypothesis


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_differential_kills_random_combinations(data):
    B = dual_bar(F3)
    keys = B.enumerate_basis(4)
    picks = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=4))
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(picks),
                                max_size=len(picks)))
    dd = {}
    for k, c in zip(picks, coeffs):
        for k2, x in B.differential_key(k).items():
            raw_iaxpy(dd, c * x, B.differential_key(k2), B.field.p)
    assert dd == {}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_normalize_fixes_its_own_output(data):
    B = module_bar(F2)
    keys = B.enumerate_basis(4)
    t, labels = data.draw(st.sampled_from(keys))
    assert B.normalize_term(t, B.basis_word(t, labels), labels, 1) == {(t, labels): 1}


# ----------------------------------------------- windowed basis vs oracle
# The basis memo enumerates each n_max once and filters a degree window;
# basis_oracle.py enumerates straight into the window, pruning shapes.


def test_windowed_basis_matches_the_direct_enumeration_dual_numbers():
    import basis_oracle

    B = dual_bar(F2)
    assert B._min_label_degree() >= 0  # so the oracle's shape prune runs
    windows = [(None, None), (None, 1), (0, 2), (2, None), (-1, 3), (3, 5)]
    for n_max in range(1, 6):
        for lo, hi in windows:
            want = basis_oracle.enumerate_basis(B, n_max, lo, hi)
            assert B.enumerate_basis(n_max, lo, hi) == want, (n_max, lo, hi)
    # (None, 1) is cut by the shape prune: trees with two labeled
    # vertices are dropped before their labels are read
    assert any(len(t.non_leaves()) > 1 for t, _ in B.enumerate_basis(5))
    assert all(len(t.non_leaves()) <= 1 for t, _ in B.enumerate_basis(5, None, 1))


def test_windowed_basis_matches_the_direct_enumeration_sorted_pair():
    from pathlib import Path

    import basis_oracle
    from kzbar.manifest import build, parse_manifest

    text = (Path(__file__).parent / "golden" / "pair_q_w3.kz").read_text()
    alg = build(parse_manifest(text)).algebras["pair"]
    assert alg.field == QQ and len(alg.operad.sorts) == 2
    B = alg.bar
    for n_max in range(1, 5):
        for lo, hi in [(None, None), (None, 1), (0, 2), (1, None), (-1, 4)]:
            want = basis_oracle.enumerate_basis(B, n_max, lo, hi)
            assert B.enumerate_basis(n_max, lo, hi) == want, (n_max, lo, hi)


def test_enumerate_basis_hands_out_a_copy_of_its_memo():
    B = dual_bar(F2)
    keys = B.enumerate_basis(3)
    keys.clear()
    assert B.enumerate_basis(3) and B.enumerate_basis(3) is not B.enumerate_basis(3)


def test_basis_word_is_memoized_per_key():
    from pathlib import Path

    from kzbar.manifest import build, parse_manifest

    text = (Path(__file__).parent / "golden" / "bar_w5.kz").read_text()
    alg = build(parse_manifest(text)).algebras["dual"]
    fresh = BarComplex(alg)
    for t, labels in alg.bar.enumerate_basis(5):
        w = alg.bar.basis_word(t, labels)
        assert alg.bar.basis_word(t, labels) is w
        assert fresh.basis_word(t, labels) == w


# ------------------------------------------------------ the operad cap
# The differential drops no term past the cap: gamma is zero past a
# declared arity bound and raises CapExceeded past the cap otherwise.


def square_zero_bar(arity_bound):
    """Ass cut to arities 1 and 2, acting on a with a.a = b, all other
    products zero, so that every triple product vanishes."""
    ass = ass_operad(QQ, 2)
    op = Operad(QQ, ass.sorts, 2, ass.components, ass.unit_names,
                ass._gamma_rule, ass._sym_rule, "free-module",
                name="Ass<=2", arity_bound=arity_bound)
    alg = word_algebra(QQ, op, degrees={"a": 1, "b": 2},
                       mult={("a", "a"): {"b": QQ.one}}, unit_name=None,
                       name="square-zero")
    return BarComplex(alg)


def test_a_bounded_operad_carries_every_window():
    B = square_zero_bar(arity_bound=2)
    assert verify_operad(B.operad).ok and verify_algebra(B.algebra).ok
    keys = B.enumerate_basis(5)
    # two adjacent binary vertices, whose contraction lands in arity 3
    assert any(t.valence(t.parent(v)) == t.valence(v) == 2
               for t, _ in keys for v in t.non_leaves() if v != t.n)
    for key in keys:
        assert dd_and_unit(B, key)[0] == {}, key
    assert B.bar_quotient(5).dim() == len([k for k in keys if not _is_bare(k)])


def test_an_unbounded_operad_stops_at_the_cap():
    B = square_zero_bar(arity_bound=None)
    with pytest.raises(CapExceeded, match="gamma result arity 3 exceeds cap 2"):
        B.bar_quotient(5)
