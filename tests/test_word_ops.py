"""Free-algebra word arithmetic against the loops of ``word_oracle``.

``FreeAlgebra.compose``, ``FreeAlgebra.word_d`` and
``DStructure.delta_terms`` carry the Koszul signs of free-algebra words.
They run on raw values and the oracle on Scalars, so the inputs are
unboxed and the results boxed to compare.
The stock operads sit in degree 0 and the shipped goldens are over F2,
where every sign is +1, so the properties here run over F3 and Q on odd
generators and on a regraded word operad with odd labels that have a
differential.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from kzbar.algebras import FreeAlgebra
from kzbar.catalog import uass_operad
from kzbar.complexes import ChainComplex
from kzbar.dstructures import DStructure
from kzbar.fields import GF, QQ
from kzbar.linalg import vec_box, vec_unbox
from kzbar.operads import CapExceeded, Operad, single_sig

import word_oracle

FIELDS = {"F3": GF(3), "Q": QQ}
CAP = 5
MAX_WORD = 3


def odd_word_operad(field):
    """uAss with its labels regraded: in arity 2 and up, a word that
    starts with 1 sits in degree 1, and its differential is minus the
    word with the first two letters swapped.  The grading ignores
    gamma's degree law, which compose, word_d and delta_terms never
    read."""
    base = uass_operad(field, CAP)
    comps = {}
    for sig, comp in base.components.items():
        if len(sig[0]) < 2:
            comps[sig] = comp
            continue
        odd = [w for w in comp.degrees if w[0] == 1]
        comps[sig] = ChainComplex(
            field, {w: int(w[0] == 1) for w in comp.degrees},
            {w: {(w[1], w[0]) + w[2:]: -field.one} for w in odd})
    return Operad(field, base.sorts, CAP, comps, base.unit_names,
                  base._gamma_rule, base._sym_rule, "free-module",
                  name="odd-uAss")


def generators(field):
    two = field.one + field.one
    return ChainComplex(field, {"a": 1, "b": 0, "c": 2, "e": 1},
                        {"a": {"b": field.one}, "c": {"e": two}})


def odd_dstructure(field):
    """A splitting on the odd generators into words with odd labels."""
    op = odd_word_operad(field)
    one = field.one
    sig2, sig3 = single_sig(2), single_sig(3)
    delta = {
        "c": {(sig2, ("a", "b"), (2, 1)): one, (sig2, ("b", "b"), (1, 2)): -one},
        "a": {(sig2, ("b", "b"), (2, 1)): one + one},
        "e": {(sig3, ("b", "b", "b"), (3, 1, 2)): one},
    }
    return DStructure(op, generators(field), delta, name="odd")


_CACHE: dict = {}


def _ds(field_name: str) -> DStructure:
    if field_name not in _CACHE:
        _CACHE[field_name] = odd_dstructure(FIELDS[field_name])
    return _CACHE[field_name]


def _word(data, fa: FreeAlgebra, max_arity: int = MAX_WORD):
    n = data.draw(st.integers(0, max_arity))
    sig = single_sig(n)
    letters = sorted(fa.generators["*"].degrees)
    xw = tuple(data.draw(st.sampled_from(letters)) for _ in range(n))
    label = data.draw(st.sampled_from(sorted(fa.operad.components[sig].degrees)))
    return (sig, xw, label)


def _vec(data, fa: FreeAlgebra, max_arity: int = MAX_WORD) -> dict:
    F = fa.field
    out = {}
    for _ in range(data.draw(st.integers(1, 3))):
        c = F.scalar(data.draw(st.integers(1, F.p - 1 if F.kind != "Q" else 5)))
        if data.draw(st.booleans()):
            c = -c
        out[_word(data, fa, max_arity)] = c
    return out


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@settings(deadline=None, max_examples=80)
@given(data=st.data())
def test_compose_matches_the_oracle(field_name, data):
    fa = _ds(field_name).free
    k = data.draw(st.integers(0, 3))
    c_sig = single_sig(k)
    c_name = data.draw(st.sampled_from(sorted(fa.operad.components[c_sig].degrees)))
    vecs = [_vec(data, fa, max_arity=2) for _ in range(k)]
    total = max((sum(len(w[1]) for w in combo)
                 for combo in product(*(list(v) for v in vecs))), default=0)
    raw = [vec_unbox(v, fa.field) for v in vecs]
    if total > CAP:
        with pytest.raises(CapExceeded):
            fa.compose(raw, c_sig, c_name)
        return
    assert vec_box(fa.compose(raw, c_sig, c_name), fa.field) == \
        word_oracle.compose(fa, vecs, c_sig, c_name)


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@settings(deadline=None, max_examples=80)
@given(data=st.data())
def test_word_d_matches_the_oracle(field_name, data):
    fa = _ds(field_name).free
    big = _word(data, fa)
    assert vec_box(fa.word_d(big), fa.field) == word_oracle.word_d(fa, big)


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@settings(deadline=None, max_examples=80)
@given(data=st.data())
def test_delta_terms_match_the_oracle(field_name, data):
    ds = _ds(field_name)
    big = _word(data, ds.free)
    assert vec_box(ds.delta_terms(big), ds.field) == word_oracle.delta_terms(ds, big)


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_the_odd_fixture_exercises_every_sign(field_name):
    """Each sign the properties test flips at least once: an odd label
    crossing an odd later word, a generator d behind an odd letter, a
    label d behind an odd word, and a splitting label crossing an odd
    tail."""
    ds = _ds(field_name)
    fa, F = ds.free, ds.field
    one, minus = F.one.val, (-F.one).val
    sig2 = single_sig(2)
    va = {(single_sig(1), ("b",), (1,)): one}
    vb = {(sig2, ("a", "b"), (1, 2)): one}
    vc = {(single_sig(1), ("a",), (1,)): one}
    got = fa.compose([vb, vc], sig2, (1, 2))
    assert all(c == minus for c in got.values()) and got
    assert fa.compose([va, vc], sig2, (1, 2)) == \
        {(sig2, ("b", "a"), (1, 2)): one}
    d = fa.word_d((sig2, ("a", "a"), (1, 2)))
    assert d[(sig2, ("a", "b"), (1, 2))] == minus
    d = fa.word_d((sig2, ("a", "b"), (1, 2)))
    assert d[(sig2, ("a", "b"), (2, 1))] == one
    terms = ds.delta_terms((sig2, ("c", "a"), (2, 1)))
    assert [c for (_, w, _), c in terms.items() if w == ("b", "b", "a")] == [one]
