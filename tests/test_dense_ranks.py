"""The ranks of the golden quotient windows against dense elimination.

``ChainComplex.d_rank`` eliminates the raw columns of one degree forward
with ``linalg.rank_raw``.  Here every differential of a golden window is
written out as a dense matrix and ranked independently: over F_p by
numpy int64 elimination mod p, over Q exactly by sympy's
``DomainMatrix``.  ``rank_raw`` must also give that rank on the columns
in reverse order and on the rows of the transpose.  Both libraries are
test-only; the runtime stays pure standard library.
"""

from pathlib import Path

import pytest

from kzbar.linalg import rank_raw
from kzbar.manifest import build, parse_manifest

GOLDEN = Path(__file__).resolve().parent / "golden"


def _dense(quotient, k) -> tuple[list, list, list]:
    """(rows, columns, entries) of d out of degree k, rows the basis in
    degree k - 1; entries are raw values."""
    cols, rows = quotient.basis(k), quotient.basis(k - 1)
    at = {name: i for i, name in enumerate(rows)}
    entries = [[0] * len(cols) for _ in rows]
    for j, c in enumerate(cols):
        for r, s in quotient.d.get(c, {}).items():
            entries[at[r]][j] = s.val
    return rows, cols, entries


def _rank_mod_p(entries, p: int) -> int:
    np = pytest.importorskip("numpy")
    m = np.array(entries, dtype=np.int64).reshape(len(entries), -1) % p
    rank = 0
    for c in range(m.shape[1]):
        live = np.nonzero(m[rank:, c])[0]
        if not live.size:
            continue
        piv = rank + int(live[0])
        m[[rank, piv]] = m[[piv, rank]]
        m[rank] = m[rank] * pow(int(m[rank, c]), -1, p) % p
        factors = m[:, c].copy()
        factors[rank] = 0
        m = (m - np.outer(factors, m[rank])) % p
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def _rank_over_q(entries) -> int:
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    qq = sympy.QQ
    rows = [[qq(v.numerator, v.denominator) for v in row] for row in entries]
    return DomainMatrix(rows, (len(rows), len(rows[0]) if rows else 0), qq).rank()


@pytest.mark.slow
@pytest.mark.parametrize("name,algebra", [
    ("bar_w5", "dual"), ("pair_f3_w2", "pair"), ("pair_q_w3", "pair")])
def test_window_ranks_match_dense_elimination(name, algebra):
    m = parse_manifest((GOLDEN / f"{name}.kz").read_text())
    alg = build(m).algebras[algebra]
    w = m.window
    quotient = alg.bar.bar_quotient(w.n_max, w.deg_lo, w.deg_hi)
    p = alg.field.p
    nonzero = 0
    for k in range(w.deg_lo, w.deg_hi + 2):
        rows, cols, entries = _dense(quotient, k)
        if not rows or not cols:
            want = 0
        elif p:
            want = _rank_mod_p(entries, p)
        else:
            want = _rank_over_q(entries)
        assert quotient.d_rank(k) == want, k
        columns = [quotient.raw_d[c] for c in cols if c in quotient.raw_d]
        assert rank_raw(columns[::-1], alg.field) == want, k
        transpose: dict = {}
        for j, col in enumerate(columns):
            for r, x in col.items():
                transpose.setdefault(r, {})[j] = x
        assert rank_raw(transpose.values(), alg.field) == want, k
        nonzero += want > 0
    assert nonzero  # the window has a differential to rank
