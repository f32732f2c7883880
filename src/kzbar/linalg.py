"""Exact sparse Gaussian elimination over any FieldSpec.

Vectors are dicts mapping basis names (arbitrary hashable, deterministically
sortable via str) to nonzero coefficients. Never store a zero coefficient.
At the public edge a coefficient is a ``Scalar``; inside, it is a raw
value, a residue mod p or a Fraction, as the structure-constant tables,
the bar memos and the elimination hold it.  Sums accumulate in place
through ``vec_iaxpy`` and ``vec_acc`` on Scalars and through
``raw_iaxpy`` on raw values, always into a dict the accumulating
function created: memoized vectors are handed out uncopied and must only
be read.
"""

from __future__ import annotations

from typing import Hashable, Iterable, NamedTuple

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


def vec_box(raw: dict, field: FieldSpec) -> Vec:
    """A vector of raw values as Scalars of field, for the public edge."""
    return {k: Scalar(field, c) for k, c in raw.items()}


def vec_unbox(v: Vec, field: FieldSpec) -> dict:
    """A vector's raw values, each coefficient's field checked."""
    raw = field.raw
    return {k: raw(c) for k, c in v.items()}


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


class Echelon(NamedTuple):
    """Reduced row echelon form, held on raw values.

    raw_rows[i] has pivot column pivots[i] with coefficient one, and that
    column is eliminated from every other row.  ``rows`` boxes them when
    read.
    """

    field: FieldSpec
    raw_rows: list[dict]
    pivots: list[Hashable]

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> list[Vec]:
        return [vec_box(row, self.field) for row in self.raw_rows]

    def reduce(self, v: Vec) -> Vec:
        """The remainder of v against the echelon: v minus a combination of
        the rows, with no support on any pivot column.  It is zero exactly
        when v lies in the row span."""
        rem = vec_unbox(v, self.field)
        for col, row in zip(self.pivots, self.raw_rows):
            c = rem.get(col)
            if c is not None:
                raw_iaxpy(rem, -c, row, self.field.p)
        return vec_box(rem, self.field)


def echelon(vectors: Iterable[Vec], field: FieldSpec) -> Echelon:
    """Gauss-Jordan elimination, columns in str order, sparsest-row pivoting
    with ties broken by input order.  The vectors are unboxed once, each
    coefficient's field checked, and eliminated on raw values.  An index
    from each column to the rows that hold it, pivot rows included, names
    the rows to reduce, so no column scans every row."""
    p = field.p
    rows = [vec_unbox(v, field) for v in vectors if v]
    where: dict = {}
    for i, v in enumerate(rows):
        for col in v:
            where.setdefault(col, set()).add(i)
    taken = [False] * len(rows)
    done_rows: list[dict] = []
    pivots: list[Hashable] = []
    for col in sorted(where, key=str):
        holders = where[col]
        cand = [i for i in holders if not taken[i]]
        if not cand:
            continue
        pi = min(cand, key=lambda i: (len(rows[i]), i))
        taken[pi] = True
        pv = rows[pi]
        lead = pv[col]
        if lead != 1:
            inv = pow(lead, -1, p) if p else 1 / lead
            pv = rows[pi] = {k: c * inv % p if p else c * inv for k, c in pv.items()}
        for i in list(holders):
            if i == pi:
                continue
            v = rows[i]
            raw_iaxpy(v, -v[col], pv, p)
            for k in pv:
                if k in v:
                    where[k].add(i)
                else:
                    where[k].discard(i)
        done_rows.append(pv)
        pivots.append(col)
    return Echelon(field, done_rows, pivots)


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
        for p, row in zip(E.pivots, E.raw_rows):
            c = row.get(f)
            if c is not None:
                vec[p] = Scalar(field, -c % field.p if field.p else -c)
        out.append(vec)
    return out
