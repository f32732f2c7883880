"""Exact sparse Gaussian elimination over any FieldSpec.

Vectors are dicts mapping basis names (arbitrary hashable, deterministically
sortable via str) to nonzero Scalars. Never store a zero coefficient.
Sums accumulate in place through ``vec_iaxpy`` and ``vec_acc``, always
into a dict the accumulating function created: memoized vectors are
handed out uncopied and must only be read.  ``raw_iaxpy`` is the same
sum on raw values, residues mod p or Fractions, as the operad and
algebra structure-constant tables hold them.
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


def raw_iaxpy(u: dict, s, v: dict, p: int | None) -> None:
    """u += s*v in place on raw values, reduced mod p (None over Q),
    dropping entries that cancel; v is only read."""
    unit = s == 1
    for k, c in v.items():
        if not unit:
            c = c * s
        w = u.get(k)
        if w is not None:
            c = c + w
        if p:
            c %= p
        if c:
            u[k] = c
        else:
            u.pop(k, None)


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
    """Gauss-Jordan elimination, columns in str order, sparsest-row pivoting
    with ties broken by input order.  An index from each column to the
    rows that hold it, pivot rows included, names the rows to reduce, so
    no column scans every row."""
    rows = [dict(v) for v in vectors if v]
    where: dict = {}
    for i, v in enumerate(rows):
        for col in v:
            where.setdefault(col, set()).add(i)
    taken = [False] * len(rows)
    done_rows: list[Vec] = []
    pivots: list[Hashable] = []
    for col in sorted(where, key=str):
        holders = where[col]
        cand = [i for i in holders if not taken[i]]
        if not cand:
            continue
        pi = min(cand, key=lambda i: (len(rows[i]), i))
        taken[pi] = True
        pv = rows[pi] = vec_scale(rows[pi], rows[pi][col].inv())
        for i in list(holders):
            if i == pi:
                continue
            v = rows[i]
            vec_iaxpy(v, -v[col], pv)
            for k in pv:
                if k in v:
                    where[k].add(i)
                else:
                    where[k].discard(i)
        done_rows.append(pv)
        pivots.append(col)
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
