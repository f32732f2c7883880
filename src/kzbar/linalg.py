"""Exact sparse Gaussian elimination over any FieldSpec.

Vectors are dicts mapping basis names (arbitrary hashable, deterministically
sortable via str) to nonzero Scalars. Never store a zero coefficient.
Sums accumulate in place through ``vec_iaxpy`` and ``vec_acc``, always
into a dict the accumulating function created: memoized vectors are
handed out uncopied and must only be read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

from kzbar.fields import FieldSpec, Scalar

Vec = dict


def vec_scale(v: Vec, s: Scalar) -> Vec:
    if s.is_zero():
        return {}
    return {k: c * s for k, c in v.items()}


def vec_iaxpy(u: Vec, s: Scalar, v: Vec) -> None:
    """u += s*v in place, dropping entries that cancel; v is only read.
    A factor of one multiplies nothing, but its field is still checked
    against v's."""
    if s.is_zero() or not v:
        return
    unit = s.val == 1
    if unit:
        s._check(next(iter(v.values())))
    for k, c in v.items():
        if not unit:
            c = c * s
        w = u.get(k)
        nc = c if w is None else w + c
        if nc.is_zero():
            u.pop(k, None)
        else:
            u[k] = nc


def vec_axpy(u: Vec, s: Scalar, v: Vec) -> Vec:
    """u + s*v as a fresh vector, dropping entries that cancel."""
    out = dict(u)
    vec_iaxpy(out, s, v)
    return out


def vec_acc(u: Vec, k, c: Scalar) -> None:
    """u[k] += c in place, dropping the entry if it cancels."""
    w = u.get(k)
    c = c if w is None else w + c
    if c.is_zero():
        u.pop(k, None)
    else:
        u[k] = c


@dataclass
class Echelon:
    """Reduced row echelon form.

    rows[i] has pivot column pivots[i] with coefficient one, and that column
    is eliminated from every other row.
    """

    rows: list[Vec]
    pivots: list[Hashable]

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: Vec) -> Vec:
        """The remainder of v against the echelon: v minus a combination of
        the rows, with no support on any pivot column.  It is zero exactly
        when v lies in the row span."""
        rem = dict(v)
        for p, row in zip(self.pivots, self.rows):
            c = rem.get(p)
            if c is None:
                continue
            vec_iaxpy(rem, -c, row)
        return rem


def echelon(vectors: Iterable[Vec], field: FieldSpec) -> Echelon:
    """Gauss-Jordan elimination, columns in str order, sparsest-row pivoting."""
    work = [dict(v) for v in vectors if v]
    cols = sorted({c for v in work for c in v}, key=str)
    done_rows: list[Vec] = []
    pivots: list[Hashable] = []
    for col in cols:
        cand = [i for i, v in enumerate(work) if col in v]
        if not cand:
            continue
        # sparsity-count pivot choice; ties broken by input order
        pi = min(cand, key=lambda i: len(work[i]))
        pv = work.pop(pi)
        pv = vec_scale(pv, pv[col].inv())
        for v in work:
            c = v.get(col)
            if c is None:
                continue
            vec_iaxpy(v, -c, pv)
        for row in done_rows:
            c = row.get(col)
            if c is None:
                continue
            vec_iaxpy(row, -c, pv)
        done_rows.append(pv)
        pivots.append(col)
        work = [v for v in work if v]
    return Echelon(done_rows, pivots)


def rank(vectors: Iterable[Vec], field: FieldSpec) -> int:
    return echelon(vectors, field).rank


def kernel_of_map(columns: dict[Hashable, Vec], field: FieldSpec) -> list[Vec]:
    """Kernel basis of the linear map sending name c to the vector columns[c].

    Returned vectors are supported on the column names; one per free
    variable, in str order.
    """
    rows_by_target: dict[Hashable, Vec] = {}
    for cname, v in columns.items():
        for r, s in v.items():
            rows_by_target.setdefault(r, {})[cname] = s
    E = echelon(rows_by_target.values(), field)
    pivot_set = set(E.pivots)
    out: list[Vec] = []
    for f in sorted(columns.keys(), key=str):
        if f in pivot_set:
            continue
        vec: Vec = {f: field.one}
        for p, row in zip(E.pivots, E.rows):
            c = row.get(f)
            if c is not None:
                vec[p] = -c
        out.append(vec)
    return out
