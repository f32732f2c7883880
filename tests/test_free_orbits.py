"""Free-algebra parts by label transversal against the per-word orbit
walk of ``orbit_oracle``, on every stock free-module operad and on the
suspension of uAss, whose transpositions act by -1."""

import pytest
from hypothesis import given, settings, strategies as st

from kzbar.algebras import free
from kzbar.catalog import ass_operad, module_operad, uass_operad
from kzbar.complexes import ChainComplex
from kzbar.fields import GF, QQ
from kzbar.linalg import vec_box, vec_unbox

from orbit_oracle import orbit_part
from suspension import suspended_uass

FIELDS = {"F2": GF(2), "F3": GF(3), "Q": QQ}
OPERADS = {"Ass": ass_operad, "uAss": uass_operad, "module": module_operad,
           "suspended uAss": suspended_uass}


def generators(field, parity: str):
    """Even generators, or odd ones with a differential into an even one."""
    if parity == "even":
        return ChainComplex(field, {"a": 0, "b": 2}, {})
    return ChainComplex(field, {"a": 0, "b": 1, "e": 1}, {"b": {"a": field.one}})


def free_algebra(op_name: str, field_name: str, parity: str):
    field = FIELDS[field_name]
    op = OPERADS[op_name](field, 3)
    gens = generators(field, parity)
    if op_name == "module":
        return free({"a": gens, "m": ChainComplex(field, {"m0": 0, "m1": 1},
                                                  {"m1": {"m0": field.one}})}, op)
    return free(gens, op)


CASES = [(o, f, p) for o in OPERADS for f in FIELDS for p in ("even", "odd")]


def parts(fa):
    for out_sort in fa.operad.sorts:
        for n in range(0, 4):
            yield n, out_sort


def _project(part, vec):
    """The part's raw projection of a boxed vector, boxed."""
    F = part.free.field
    return vec_box(part.project(vec_unbox(vec, F)), F)


def _transport(phi, vec):
    """An oracle vector carried to the part's classes: oracle
    representative r goes to sign * q when phi[r] = (q, sign)."""
    out = {}
    for r, c in vec.items():
        q, sign = phi[r]
        out[q] = sign * c
    return out


@pytest.mark.parametrize("op_name,field_name,parity", CASES)
def test_transversal_matches_orbit_walk(op_name, field_name, parity):
    """The part and the oracle have the same classes, projection and
    differential, matched through the bijection that projects each oracle
    representative (its str-least word) onto one of the part's root words
    with sign +-1."""
    fa = free_algebra(op_name, field_name, parity)
    assert fa.operad.certificate == "free-module"
    one = fa.field.one
    for n, out_sort in parts(fa):
        part = fa.part(n, out_sort)
        reps, project, d = orbit_part(fa, n, out_sort)
        phi = {}
        for r in reps:
            ((q, sign),) = _project(part, {r: one}).items()
            assert sign in (one, -one), (r, sign)
            phi[r] = (q, sign)
        assert sorted((q for q, _ in phi.values()), key=str) == part.reps, (n, out_sort)
        for r, (q, _) in phi.items():
            assert part.degrees[q] == part.big_degrees[r]
        for word in part.big_degrees:
            assert _project(part, {word: one}) == _transport(phi, project({word: one})), word
        assert part.complex.d == {
            q: _transport(phi, {r2: sign * c for r2, c in d[r].items()})
            for r, (q, sign) in phi.items() if r in d}, (n, out_sort)
        roots = fa.operad.label_orbits(n).members
        for sig, _, c_name in part.reps:
            assert roots[(sig, c_name)][0] == (sig, c_name)
        assert part.reps == sorted(part.reps, key=str)
        assert part.reps == part.complex.basis()
        assert list(part.complex.degrees) == part.reps
        assert part.degrees == part.complex.degrees


def _sampled_word(data):
    fa = free_algebra(*data.draw(st.sampled_from(CASES)))
    n, out_sort = data.draw(st.sampled_from(list(parts(fa))))
    part = fa.part(n, out_sort)
    words = list(part.big_degrees)
    if not words:
        return fa, part, n, None
    return fa, part, n, data.draw(st.sampled_from(words))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_project_of_section_is_the_representative(data):
    fa, part, _, _ = _sampled_word(data)
    reps = part.complex.basis()
    if reps:
        r = data.draw(st.sampled_from(reps))
        assert part.project({r: fa.field.one.val}) == {r: fa.field.one.val}


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_project_is_invariant_under_diagonal_swaps(data):
    fa, part, n, word = _sampled_word(data)
    if word is None or n < 2:
        return
    k = data.draw(st.integers(1, n - 1))
    assert part.project({word: fa.field.one.val}) == part.project(fa._diagonal_swap(word, k))
