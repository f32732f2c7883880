"""Exact sparse linear algebra over any FieldSpec.

Vectors are dicts mapping basis names (arbitrary hashable) to nonzero
coefficients. Never store a zero coefficient.  At the public edge a
coefficient is a ``Scalar``; inside, it is a raw value, a residue mod p
or a Fraction, as the structure-constant tables, the bar memos, the
free-algebra words, the chain-complex columns and the elimination hold
it.  Sums accumulate in place through ``vec_iaxpy`` on Scalars and
through ``raw_iaxpy`` on raw values, always into a dict the accumulating
function created: memoized vectors are handed out uncopied and must only
be read.

A rank is a forward elimination (``rank_raw``) that reads rows and
columns in any order and keeps no reduced form: over F2 a row is an int
bitset, over F_p a dict of residues, over Q a fraction-free dict of
integers.  Only where pivots are read, in the representatives of a
quotient and the cycles of ``kernel_raw``, does ``echelon_raw`` run
Gauss-Jordan with its columns in str order.
"""

from __future__ import annotations

from math import gcd, lcm
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


class Echelon(NamedTuple):
    """Reduced row echelon form, held on raw values.

    raw_rows[i] has pivot column pivots[i] with coefficient one, and that
    column is eliminated from every other row.
    """

    field: FieldSpec
    raw_rows: list[dict]
    pivots: list[Hashable]

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, v: dict) -> dict:
        """The remainder of the raw vector v against the echelon: v minus
        a combination of the rows, with no support on any pivot column.
        It is zero exactly when v lies in the row span."""
        rem = dict(v)
        for col, row in zip(self.pivots, self.raw_rows):
            c = rem.get(col)
            if c is not None:
                raw_iaxpy(rem, -c, row, self.field.p)
        return rem


def echelon(vectors: Iterable[Vec], field: FieldSpec) -> Echelon:
    """``echelon_raw`` of the vectors, each unboxed once with its
    coefficients' field checked."""
    return echelon_raw([vec_unbox(v, field) for v in vectors if v], field)


def echelon_raw(rows: list[dict], field: FieldSpec) -> Echelon:
    """Gauss-Jordan elimination of raw rows, columns in str order,
    sparsest-row pivoting with ties broken by input order.  The rows are
    reduced in place, so pass rows that no one else reads.  An index from
    each column to the rows that hold it, pivot rows included, names the
    rows to reduce, so no column scans every row."""
    p = field.p
    rows = [v for v in rows if v]
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


def rank_raw(rows: Iterable[dict], field: FieldSpec) -> int:
    """The rank of raw rows by forward elimination, in any order of the
    rows and of their columns; the rows are only read.

    Columns are numbered as first seen.  A kept row is keyed by its
    lowest column, and each new row is reduced against the kept row of
    its lowest column until it is zero or starts a column of its own.
    Over F2 a row is an int bitset and a reduction one xor (M4RI-style
    rows, without the table); over F_p a kept row is scaled to lead 1;
    over Q a row is cleared to primitive integers and reduced
    fraction-free (Bareiss-style, divided by its content at each step).
    """
    index: dict = {}
    p = field.p
    kept: dict = {}
    if p == 2:
        for v in rows:
            row = 0
            for k, c in v.items():
                if c:
                    i = index.get(k)
                    if i is None:
                        i = index[k] = len(index)
                    row |= 1 << i
            while row:
                low = row & -row
                other = kept.get(low)
                if other is None:
                    kept[low] = row
                    break
                row ^= other
        return len(kept)
    for v in rows:
        row = {}
        for k, c in v.items():
            if c:
                i = index.get(k)
                if i is None:
                    i = index[k] = len(index)
                row[i] = c
        if not row:
            continue
        if not p:
            nds = [(i, c.numerator, c.denominator) for i, c in row.items()]
            scale = lcm(*(d for _, _, d in nds))
            row = {i: n * (scale // d) for i, n, d in nds}
        while row:
            lead = min(row)
            other = kept.get(lead)
            if other is None:
                if p:
                    inv = pow(row[lead], -1, p)
                    row = {i: c * inv % p for i, c in row.items()}
                kept[lead] = row
                break
            c = row[lead]
            if p:
                for i, x in other.items():
                    y = (row.get(i, 0) - c * x) % p
                    if y:
                        row[i] = y
                    else:
                        del row[i]
            else:
                a = other[lead]
                if a != 1:
                    row = {i: a * x for i, x in row.items()}
                for i, x in other.items():
                    y = row.get(i, 0) - c * x
                    if y:
                        row[i] = y
                    else:
                        del row[i]
                g = gcd(*row.values()) if row else 1
                if g != 1:
                    row = {i: x // g for i, x in row.items()}
    return len(kept)


def kernel_raw(columns: dict[Hashable, dict], field: FieldSpec) -> list[dict]:
    """Kernel basis of the linear map sending name c to the raw vector
    columns[c].

    Returned raw vectors are supported on the column names; one per free
    variable, in str order.
    """
    rows_by_target: dict[Hashable, dict] = {}
    for cname, v in columns.items():
        for r, s in v.items():
            rows_by_target.setdefault(r, {})[cname] = s
    E = echelon_raw(list(rows_by_target.values()), field)
    pivot_set = set(E.pivots)
    one, P = field.one.val, field.p
    out: list[dict] = []
    for f in sorted(columns.keys(), key=str):
        if f in pivot_set:
            continue
        vec = {f: one}
        for p, row in zip(E.pivots, E.raw_rows):
            c = row.get(f)
            if c is not None:
                vec[p] = -c % P if P else -c
        out.append(vec)
    return out
