"""Operad layer: composition against the operational oracle, axiom
verification on the stock operads, fault injection, certificates."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzbar.catalog import (
    algebra_as_operad,
    ass_operad,
    builtin,
    com_operad,
    module_operad,
    uass_operad,
    unit_operad,
)
from kzbar.complexes import ChainComplex
from kzbar.fields import GF, QQ
from kzbar.operads import (
    CapExceeded,
    Operad,
    OperadError,
    adjacent_word,
    block_perm,
    single_sig,
    verify_operad,
)
from operad_oracle import oracle_gamma

F2 = GF(2)
F3 = GF(3)


def idw(n):
    return tuple(range(1, n + 1))


def basis_pairs(op, sorts, max_total):
    """All tuples of (sig, name) matching the sorts with result in cap."""
    if not sorts:
        yield ()
        return
    first, rest = sorts[0], sorts[1:]
    for sig in op.signatures():
        if sig[1] != first or len(sig[0]) > max_total:
            continue
        for tail in basis_pairs(op, rest, max_total - len(sig[0])):
            for name in op.components[sig].basis():
                yield ((sig, name),) + tail


# ------------------------------------------------------------- helpers


def test_adjacent_word_identity_and_cycle():
    assert adjacent_word((1, 2, 3)) == []
    assert adjacent_word((2, 1)) == [1]
    assert adjacent_word((2, 3, 1)) == [2, 1]


def test_block_perm_swap():
    assert block_perm((2, 1), [1, 2]) == (3, 1, 2)
    assert block_perm((1, 2), [2, 2]) == (1, 2, 3, 4)
    assert block_perm((2, 1), [2, 1]) == (2, 3, 1)


# ------------------------------------------------------------- composition


def test_gamma_identity_substitution():
    op = ass_operad(QQ, 4)
    x2 = op.basis_element(single_sig(2), idw(2))
    out = op.gamma([x2, x2], x2)
    assert out.vec == {idw(4): QQ.one}


def test_gamma_j_identity_substitution():
    op = ass_operad(QQ, 4)
    x2 = op.basis_element(single_sig(2), idw(2))
    out = op.gamma_j(2, x2, x2)
    assert out.vec == {idw(3): QQ.one}
    assert op.gamma_j(1, x2, op.unit()).vec == x2.vec
    for j in (1, 2):
        assert op.gamma_j(j, op.unit(), x2).vec == x2.vec


def test_gamma_unit_laws_exhaustive_small():
    op = uass_operad(QQ, 3)
    for sig in op.signatures():
        for name in op.components[sig].basis():
            x = op.basis_element(sig, name)
            assert op.gamma([x], op.unit()).vec == x.vec
            units = [op.unit() for _ in sig[0]]
            assert op.gamma(units, x).vec == x.vec


def test_gamma_matches_oracle_uass_exhaustive():
    op = uass_operad(QQ, 3)
    for y_sig in op.signatures():
        for y_name in op.components[y_sig].basis():
            for xs in basis_pairs(op, y_sig[0], op.cap):
                _, vec = op.gamma_basis(y_sig, y_name, xs)
                assert vec == {oracle_gamma(y_sig, y_name, xs): QQ.one}


def test_gamma_matches_oracle_umod_exhaustive():
    op = module_operad(QQ, 3)
    for y_sig in op.signatures():
        for y_name in op.components[y_sig].basis():
            for xs in basis_pairs(op, y_sig[0], op.cap):
                _, vec = op.gamma_basis(y_sig, y_name, xs)
                assert vec == {oracle_gamma(y_sig, y_name, xs): QQ.one}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gamma_matches_oracle_uass_cap4(data):
    op = uass_operad(F2, 4)
    k = data.draw(st.integers(0, 3), label="outer arity")
    perms = list(itertools.permutations(range(1, k + 1)))
    y_name = data.draw(st.sampled_from(perms)) if perms else ()
    xs = []
    room = op.cap
    for i in range(k):
        a = data.draw(st.integers(0, room), label=f"arity {i}")
        ws = list(itertools.permutations(range(1, a + 1)))
        w = data.draw(st.sampled_from(ws)) if ws else ()
        xs.append((single_sig(a), w))
        room -= a
    y_sig = single_sig(k)
    _, vec = op.gamma_basis(y_sig, y_name, tuple(xs))
    assert vec == {oracle_gamma(y_sig, y_name, tuple(xs)): F2.one}


def test_gamma_j_equals_direct_splice():
    op = uass_operad(QQ, 3)
    for n in range(1, 4):
        for k in range(0, 4 - n + 1):
            for y_name in itertools.permutations(range(1, n + 1)):
                for x_name in itertools.permutations(range(1, k + 1)):
                    for j in range(1, n + 1):
                        if n + k - 1 > op.cap:
                            continue
                        x = op.basis_element(single_sig(k), x_name)
                        y = op.basis_element(single_sig(n), y_name)
                        got = op.gamma_j(j, x, y)
                        # direct index arithmetic, written independently
                        out = []
                        for v in y_name:
                            if v < j:
                                out.append(v)
                            elif v == j:
                                out.extend(u + j - 1 for u in x_name)
                            else:
                                out.append(v + k - 1)
                        assert got.vec == {tuple(out): QQ.one}


def test_gamma_cap_exceeded():
    op = uass_operad(QQ, 3)
    x2 = op.basis_element(single_sig(2), idw(2))
    with pytest.raises(CapExceeded):
        op.gamma([x2, x2], x2)


def test_gamma_sort_mismatch():
    op = module_operad(QQ, 3)
    m_id = op.basis_element((("m",), "m"), ())
    a_id = op.basis_element((("a",), "a"), (1,))
    y = op.basis_element((("a", "a"), "a"), (1, 2))
    with pytest.raises(OperadError):
        op.gamma([m_id, a_id], y)


def test_gamma_basis_past_the_cap_raises_on_every_call():
    op = uass_operad(QQ, 3)
    y_sig, x1, x2 = single_sig(2), (single_sig(1), (1,)), (single_sig(2), idw(2))
    # the table is keyed by (y id, x ids); an earlier composite of the
    # same y is in it
    y, i1, i2 = op._ids[(y_sig, idw(2))], op._ids[x1], op._ids[x2]
    assert op.gamma_basis(y_sig, idw(2), (x2, x1))[0] == single_sig(3)
    assert op._gamma_memo[(y, (i2, i1))] == (single_sig(3), {op._ids[(single_sig(3), idw(3))]: 1})
    for _ in range(3):
        with pytest.raises(CapExceeded, match="gamma result arity 4 exceeds cap 3"):
            op.gamma_basis(y_sig, idw(2), (x2, x2))
    assert (y, (i2, i2)) not in op._gamma_memo


def test_gamma_basis_sort_mismatch_raises_on_every_call():
    op = module_operad(QQ, 3)
    xs = (((("m",), "m"), ()), ((("a",), "a"), (1,)))
    for _ in range(3):
        with pytest.raises(OperadError, match="sort mismatch: 'm' fed into 'a' slot"):
            op.gamma_basis((("a", "a"), "a"), (1, 2), xs)


def test_gamma_basis_is_zero_past_the_arity_bound_on_every_call():
    ass = ass_operad(QQ, 2)
    calls = []

    def rule(y_sig, y_name, xs):
        calls.append(xs)
        return ass._gamma_rule(y_sig, y_name, xs)

    op = Operad(QQ, ass.sorts, 2, ass.components, ass.unit_names, rule,
                ass._sym_rule, "free-module", arity_bound=2)
    x2 = (single_sig(2), idw(2))
    for _ in range(3):
        assert op.gamma_basis(single_sig(2), idw(2), (x2, x2)) == (single_sig(4), {})
    assert calls == []


# ------------------------------------------------------------- symmetry


def test_apply_perm_is_composition_on_words():
    op = ass_operad(QQ, 3)
    sig = single_sig(3)
    for sigma in itertools.permutations((1, 2, 3)):
        for w in itertools.permutations((1, 2, 3)):
            got = op.apply_perm(op.basis_element(sig, w), sigma)
            want = tuple(sigma[v - 1] for v in w)
            assert got.vec == {want: QQ.one}


@settings(max_examples=40, deadline=None)
@given(
    sigma=st.permutations(list(range(1, 5))),
    w=st.permutations(list(range(1, 5))),
)
def test_apply_perm_is_composition_arity4(sigma, w):
    op = ass_operad(F3, 4)
    got = op.apply_perm(op.basis_element(single_sig(4), tuple(w)), tuple(sigma))
    want = tuple(sigma[v - 1] for v in w)
    assert got.vec == {want: F3.one}


def test_equivariance_concrete_instance():
    op = ass_operad(QQ, 3)
    y = op.basis_element(single_sig(2), (2, 1))
    x1 = op.basis_element(single_sig(2), idw(2))
    x2 = op.unit()
    # gamma(x2, x1; s_1 . id) against the block permutation of gamma(x1, x2; id)
    lhs = op.gamma([x1, x2], y)
    assert lhs.vec == {(3, 1, 2): QQ.one}


# ------------------------------------------------------------- verification


STOCK_OPERADS = {
    "unit-Q": lambda: unit_operad(QQ),
    "unit-F2": lambda: unit_operad(F2),
    "Ass-Q": lambda: ass_operad(QQ, 3),
    "Ass-F2": lambda: ass_operad(F2, 3),
    "uAss-Q": lambda: uass_operad(QQ, 3),
    "uAss-F3": lambda: uass_operad(F3, 3),
    "Com-Q": lambda: com_operad(QQ, 4),
    "uMod-Q": lambda: module_operad(QQ, 3),
    "uMod-F2": lambda: module_operad(F2, 3),
}


@pytest.mark.parametrize("make", list(STOCK_OPERADS.values()), ids=list(STOCK_OPERADS))
def test_verify_stock_operads(make):
    rep = verify_operad(make())
    assert rep.ok, rep.failures[:5]
    assert rep.checks_run > 0


def dg_operad():
    """Dual numbers with exact differential, d(e) = 1."""
    return algebra_as_operad(
        QQ,
        degrees={"1": 0, "e": 1},
        mult={("1", "1"): {"1": QQ.one}, ("1", "e"): {"e": QQ.one},
              ("e", "1"): {"e": QQ.one}},
        unit_name="1",
        d={"e": {"1": QQ.one}},
    )


def test_verify_dg_algebra_operad():
    rep = verify_operad(dg_operad())
    assert rep.ok, rep.failures[:5]


def crooked_ass(cap: int):
    """Ass whose gamma((1, 2), (1,); (1, 2)) is the word (2, 1, 3)."""
    op = ass_operad(QQ, cap)
    honest = op._gamma_rule

    def crooked(y_sig, y_name, xs):
        if y_name == (1, 2) and tuple(n for _, n in xs) == ((1, 2), (1,)):
            return {(2, 1, 3): QQ.one}
        return honest(y_sig, y_name, xs)

    op._gamma_rule = crooked
    return op


def test_verify_names_corrupted_gamma_triple():
    # at cap 4 the corrupted composite is fed a binary z, so the two
    # groupings of (y, xs, zs) disagree
    rep = verify_operad(crooked_ass(4))
    first = next(f for f in rep.failures if f.startswith("associativity"))
    assert first == ("associativity fails: y=(('*', '*'), '*'):(1, 2) "
                     "xs=[(1, 2), (1,)] zs=[(1, 2), (1,), (1,)]")


def lazy_sym_ass():
    """Ass whose transpositions all act as the identity."""
    op = ass_operad(QQ, 3)

    def lazy_sym(sig, k, w):
        return {w: QQ.one}

    op._sym_rule = lazy_sym
    return op


def test_verify_catches_broken_symmetry():
    rep = verify_operad(lazy_sym_ass())
    assert not rep.ok
    assert any("equivariance" in f or "free-module" in f for f in rep.failures)


def test_free_module_certificate_rejects_trivial_action():
    comps = {
        single_sig(n): ChainComplex(QQ, {f"mu{n}": 0}, {}) for n in range(1, 3)
    }
    op = Operad(
        QQ, ("*",), 2, comps, {"*": "mu1"},
        lambda y_sig, y_name, xs: {f"mu{sum(len(s[0]) for s, _ in xs)}": QQ.one},
        lambda sig, k, name: {name: QQ.one},
        "free-module", name="Com-mislabeled",
    )
    rep = verify_operad(op)
    assert any("orbit" in f for f in rep.failures)


def test_com_requires_char0():
    with pytest.raises(OperadError, match="char0"):
        com_operad(F2, 3)


def test_builtin_dispatch_and_unknown():
    assert builtin("uAss", QQ, 2).dim(single_sig(0)) == 1
    assert builtin("unit-operad", QQ, 1).dim(single_sig(1)) == 1
    with pytest.raises(OperadError, match="unknown builtin"):
        builtin("Lie", QQ, 3)


# ------------------------------------------------------------- dimensions


def test_ass_dimensions_over_f2():
    op = ass_operad(F2, 4)
    dims = {n: op.dim(single_sig(n)) for n in range(0, 5)}
    assert dims == {0: 0, 1: 1, 2: 2, 3: 6, 4: 24}


def test_uass_adds_nullary():
    op = uass_operad(F2, 4)
    assert op.dim(single_sig(0)) == 1
    assert op.dim(single_sig(4)) == 24


def test_unit_operad_components():
    op = unit_operad(QQ)
    assert op.dim(single_sig(1)) == 1
    assert op.dim(single_sig(0)) == 0
    assert op.component(single_sig(1)).degrees == {"1": 0}


def test_module_operad_dimensions():
    op = module_operad(QQ, 3)
    assert op.dim((("a", "a"), "a")) == 2
    assert op.dim((("a", "m"), "m")) == 1
    assert op.dim((("m", "a"), "m")) == 1
    assert op.dim((("a", "m", "a"), "m")) == 2
    assert op.dim((("m",), "m")) == 1
    assert op.dim(((), "a")) == 1
    assert op.dim(((), "m")) == 0


def test_module_unit_acts_as_identity():
    op = module_operad(QQ, 3)
    y = op.basis_element((("a", "m"), "m"), (1,))
    out = op.gamma([op.unit("a"), op.unit("m")], y)
    assert out.sig == (("a", "m"), "m") and out.vec == y.vec


# ------------------------------------------------------------- elements


def test_element_arithmetic_and_parts():
    op = algebra_as_operad(
        QQ,
        degrees={"1": 0, "e": 1},
        mult={("1", "1"): {"1": QQ.one}, ("1", "e"): {"e": QQ.one},
              ("e", "1"): {"e": QQ.one}},
        unit_name="1",
        d={"e": {"1": QQ.one}},
    )
    sig = single_sig(1)
    v = op.basis_element(sig, "1") + op.basis_element(sig, "e").scale(QQ.scalar(2))
    parts = v.homogeneous_parts()
    assert sorted(parts) == [0, 1]
    assert parts[0].vec == {"1": QQ.one}
    dv = op.d_element(v)
    assert dv.vec == {"1": QQ.scalar(2)}


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_associativity_sampled_cap4(data):
    op = uass_operad(F2, 4)
    sigs = op.signatures()
    y_sig = data.draw(st.sampled_from(sigs))
    y_name = data.draw(st.sampled_from(sorted(op.components[y_sig].basis(), key=str)))
    xs = []
    room = op.cap
    ok = True
    for s in y_sig[0]:
        choices = [sig for sig in sigs if sig[1] == s and len(sig[0]) <= room]
        if not choices:
            ok = False
            break
        sig = data.draw(st.sampled_from(choices))
        nm = data.draw(st.sampled_from(sorted(op.components[sig].basis(), key=str)))
        xs.append(op.basis_element(sig, nm))
        room -= len(sig[0])
    if not ok:
        return
    y = op.basis_element(y_sig, y_name)
    mid = op.gamma(xs, y)
    zs = []
    room2 = op.cap
    for s in mid.sig[0]:
        choices = [sig for sig in sigs if sig[1] == s and len(sig[0]) <= room2]
        if not choices:
            return
        sig = data.draw(st.sampled_from(choices))
        nm = data.draw(st.sampled_from(sorted(op.components[sig].basis(), key=str)))
        zs.append(op.basis_element(sig, nm))
        room2 -= len(sig[0])
    lhs = op.gamma(zs, mid)
    pos = 0
    inner = []
    for x in xs:
        inner.append(op.gamma(zs[pos : pos + x.arity], x))
        pos += x.arity
    rhs = op.gamma(inner, y)
    assert lhs.sig == rhs.sig and lhs.vec == rhs.vec
