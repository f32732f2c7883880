"""Reference elimination: ``kzbar.linalg.echelon`` before its column index.

For each column in str order it scans every remaining row for the ones
that hold it, pivots on the sparsest (ties by input order), and reduces
every other remaining row and every earlier pivot row.  The tests
compare its pivots and reduced rows, key order included, with the
indexed elimination.
"""

from __future__ import annotations

from kzbar.linalg import vec_iaxpy, vec_scale


def echelon(vectors, field):
    """Returns (rows, pivots) of the reduced row echelon form."""
    work = [dict(v) for v in vectors if v]
    cols = sorted({c for v in work for c in v}, key=str)
    done_rows, pivots = [], []
    for col in cols:
        cand = [i for i, v in enumerate(work) if col in v]
        if not cand:
            continue
        pi = min(cand, key=lambda i: len(work[i]))
        pv = work.pop(pi)
        pv = vec_scale(pv, pv[col].inv())
        for v in work:
            c = v.get(col)
            if c is not None:
                vec_iaxpy(v, -c, pv)
        for row in done_rows:
            c = row.get(col)
            if c is not None:
                vec_iaxpy(row, -c, pv)
        done_rows.append(pv)
        pivots.append(col)
        work = [v for v in work if v]
    return done_rows, pivots
