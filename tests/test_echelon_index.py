"""The column-indexed elimination against the scanning one it replaced
(``echelon_oracle``): the same pivots and the same reduced rows, key
order included, over F2, F3 and Q, on random sparse matrices and on the
differentials of golden bar windows and their transposes.  The reduced
form itself is unique; the pivot rule shows in the key order of the
rows, which the comparison includes.  ``rank`` must count the oracle's
pivots on the same rows.

The forward-only ``rank_raw``, which ranks every differential, keeps no
reduced form to compare; its rank must equal ``echelon``'s and the
oracle's on every shuffle of the rows and of each row's columns."""

from pathlib import Path

import random

import pytest
from hypothesis import given, settings, strategies as st

import echelon_oracle
from kzbar.fields import GF, QQ
from kzbar.linalg import echelon, rank, rank_raw, vec_unbox
from kzbar.manifest import build, parse_manifest

GOLDEN = Path(__file__).resolve().parent / "golden"
FIELDS = [GF(2), GF(3), QQ]


def _assert_same(rows, field):
    got = echelon(rows, field)
    want_rows, want_pivots = echelon_oracle.echelon(rows, field)
    assert got.pivots == want_pivots
    assert [list(r.items()) for r in got.rows] == [list(r.items()) for r in want_rows]
    assert rank(rows, field) == len(want_pivots)


@st.composite
def matrices(draw):
    """Up to 12 sparse rows on up to 9 columns, with zero rows, repeated
    rows and rows of equal length, so ties in the pivot choice occur."""
    F = draw(st.sampled_from(FIELDS))
    cols = [f"c{j}" for j in range(draw(st.integers(1, 9)))]
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        support = draw(st.lists(st.sampled_from(cols), unique=True))
        row = {c: F.scalar(draw(st.integers(-3, 3))) for c in support}
        rows.append({c: v for c, v in row.items() if v})
    return rows, F


@settings(deadline=None, max_examples=300)
@given(matrices())
def test_random_matrices_match_the_scan(m):
    _assert_same(*m)


@pytest.mark.parametrize("name", ["bar_w5", "unit_w5", "pair_q_w3", "pair_f3_w2"])
def test_golden_window_differentials_match_the_scan(name):
    m = parse_manifest((GOLDEN / f"{name}.kz").read_text())
    w = m.window
    for alg in build(m).algebras.values():
        quotient = alg.bar.bar_quotient(w.n_max, w.deg_lo, w.deg_hi)
        for k in sorted(set(quotient.degrees.values())):
            cols = {x: quotient.d.get(x, {}) for x in quotient.basis(k)}
            _assert_same(list(cols.values()), alg.field)
            transpose: dict = {}
            for x, col in cols.items():
                for y, c in col.items():
                    transpose.setdefault(y, {})[x] = c
            _assert_same(list(transpose.values()), alg.field)


@st.composite
def rank_cases(draw):
    """Up to 14 sparse rows on up to 10 columns over F2, F3, F_(2^31 - 1)
    or Q, with empty rows, repeated rows and columns no row holds, and a
    seed for shuffling the rows and each row's columns."""
    F = draw(st.sampled_from([GF(2), GF(3), GF(2**31 - 1), QQ]))
    cols = [f"c{j}" for j in range(draw(st.integers(1, 10)))]
    values = st.integers(-(2**40), 2**40) if F.p != 3 else st.integers(-3, 3)
    if F.p is None:
        values = st.fractions(min_value=-9, max_value=9, max_denominator=5)
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        if rows and draw(st.booleans()):
            rows.append(dict(rows[-1]))
            continue
        support = draw(st.lists(st.sampled_from(cols), unique=True))
        row = {c: F.scalar(draw(values)) for c in support}
        rows.append({c: v for c, v in row.items() if v})
    return rows, F, draw(st.integers(0, 2**32))


@settings(deadline=None, max_examples=300)
@given(rank_cases())
def test_the_forward_rank_matches_echelon_and_the_oracle(case):
    rows, F, seed = case
    want = len(echelon_oracle.echelon(rows, F)[1])
    assert echelon(rows, F).rank == want
    raw = [vec_unbox(v, F) for v in rows]
    rng = random.Random(seed)
    for _ in range(3):
        rng.shuffle(raw)
        shuffled = []
        for v in raw:
            items = list(v.items())
            rng.shuffle(items)
            shuffled.append(dict(items))
        before = [list(v.items()) for v in shuffled]
        assert rank_raw(shuffled, F) == want
        assert [list(v.items()) for v in shuffled] == before  # only read
    assert rank(rows, F) == want
