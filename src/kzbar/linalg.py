"""Exact sparse Gaussian elimination over any FieldSpec.

Vectors are dicts mapping basis names (arbitrary hashable, deterministically
sortable via str) to nonzero Scalars. Never store a zero coefficient.
Sums accumulate in place through ``vec_iaxpy`` and ``vec_acc``, always
into a dict the accumulating function created: memoized vectors are
handed out uncopied and must only be read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable

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


def default_key(c: Hashable) -> str:
    return str(c)


@dataclass
class Echelon:
    """Reduced row echelon form with optional provenance tracking.

    rows[i] has pivot column pivots[i] with coefficient one, and that column
    is eliminated from every other row. combos[i] (when tracked) expresses
    rows[i] as a combination of the input vectors by index.
    """

    rows: list[Vec]
    pivots: list[Hashable]
    combos: list[Vec] | None
    field: FieldSpec

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: Vec) -> tuple[Vec, dict[int, Scalar]]:
        """Reduce v against the echelon; returns (remainder, row coefficients).

        v == remainder + sum coeffs[i] * rows[i], and remainder has no
        support on any pivot column.
        """
        rem = dict(v)
        coeffs: dict[int, Scalar] = {}
        for i, (p, row) in enumerate(zip(self.pivots, self.rows)):
            c = rem.get(p)
            if c is None:
                continue
            coeffs[i] = c
            vec_iaxpy(rem, -c, row)
        return rem, coeffs

    def express(self, v: Vec) -> Vec | None:
        """Coordinates of v on the ORIGINAL input vectors, or None if outside.

        Requires tracking; when inputs were dependent an arbitrary valid
        expression is returned.
        """
        if self.combos is None:
            raise ValueError("echelon built without tracking")
        rem, coeffs = self.reduce(v)
        if rem:
            return None
        out: Vec = {}
        for i, c in coeffs.items():
            vec_iaxpy(out, c, self.combos[i])
        return out


def echelon(
    vectors: Iterable[Vec],
    field: FieldSpec,
    track: bool = False,
    key: Callable[[Any], str] = default_key,
) -> Echelon:
    """Gauss-Jordan elimination, columns in key order, sparsest-row pivoting."""
    work: list[tuple[Vec, Vec | None]] = []
    for i, v in enumerate(vectors):
        if v:
            work.append((dict(v), {i: field.one} if track else None))
    cols = sorted({c for v, _ in work for c in v}, key=key)
    done_rows: list[Vec] = []
    done_combos: list[Vec] = []
    pivots: list[Hashable] = []
    for col in cols:
        cand = [i for i, (v, _) in enumerate(work) if col in v]
        if not cand:
            continue
        # sparsity-count pivot choice; ties broken by input order
        pi = min(cand, key=lambda i: len(work[i][0]))
        pv, pcombo = work.pop(pi)
        s = pv[col].inv()
        pv = vec_scale(pv, s)
        if track:
            pcombo = vec_scale(pcombo, s)  # type: ignore[arg-type]
        for v, combo in work:
            c = v.get(col)
            if c is None:
                continue
            vec_iaxpy(v, -c, pv)
            if track:
                vec_iaxpy(combo, -c, pcombo)  # type: ignore[arg-type]
        for i, row in enumerate(done_rows):
            c = row.get(col)
            if c is None:
                continue
            vec_iaxpy(row, -c, pv)
            if track:
                vec_iaxpy(done_combos[i], -c, pcombo)  # type: ignore[arg-type]
        done_rows.append(pv)
        pivots.append(col)
        if track:
            done_combos.append(pcombo)  # type: ignore[arg-type]
        work = [(v, combo) for v, combo in work if v]
    return Echelon(done_rows, pivots, done_combos if track else None, field)


def rank(vectors: Iterable[Vec], field: FieldSpec) -> int:
    return echelon(vectors, field).rank


def kernel_of_map(
    columns: dict[Hashable, Vec],
    field: FieldSpec,
    var_key: Callable[[Any], str] = default_key,
) -> list[Vec]:
    """Kernel basis of the linear map sending name c to the vector columns[c].

    Returned vectors are supported on the column names; one per free
    variable, in var_key order.
    """
    rows_by_target: dict[Hashable, Vec] = {}
    for cname, v in columns.items():
        for r, s in v.items():
            rows_by_target.setdefault(r, {})[cname] = s
    E = echelon(list(rows_by_target.values()), field, key=var_key)
    pivot_set = set(E.pivots)
    out: list[Vec] = []
    for f in sorted(columns.keys(), key=var_key):
        if f in pivot_set:
            continue
        vec: Vec = {f: field.one}
        for p, row in zip(E.pivots, E.rows):
            c = row.get(f)
            if c is not None:
                vec[p] = -c
        out.append(vec)
    return out
