"""Reference homology: cycle representatives and a tracked elimination.

This is the route that reads homology off explicit cycles.  At each
degree k it takes a kernel basis of d_k, eliminates the boundaries
im d_{k+1}, and grows a triangular span of boundaries plus chosen cycles,
keeping a cycle as a representative exactly when it is new to the span.
A chain map's induced rank comes from expressing f(z), for every source
representative z, on the target's boundaries and representatives through
an elimination that tracks how each reduced row combines the inputs.

It shares no elimination with ``kzbar.linalg`` or ``kzbar.complexes``,
which read homology off ranks; the tests compare the two.  Only the
sparse vector helpers and the scalars are borrowed.
"""

from __future__ import annotations

from types import SimpleNamespace

from kzbar.complexes import ComplexError, QuasiIsoVerdict
from kzbar.linalg import vec_iaxpy, vec_scale


def _tracked_echelon(vectors, field):
    """Gauss-Jordan elimination in str column order; every reduced row
    carries its combination of the inputs by index.  Returns
    (pivots, rows, combos)."""
    work = [(dict(v), {i: field.one}) for i, v in enumerate(vectors) if v]
    pivots, rows, combos = [], [], []
    for col in sorted({c for v, _ in work for c in v}, key=str):
        cand = [i for i, (v, _) in enumerate(work) if col in v]
        if not cand:
            continue
        pv, pc = work.pop(cand[0])
        s = pv[col].inv()
        pv, pc = vec_scale(pv, s), vec_scale(pc, s)
        for v, combo in work + list(zip(rows, combos)):
            c = v.get(col)
            if c is not None:
                vec_iaxpy(v, -c, pv)
                vec_iaxpy(combo, -c, pc)
        pivots.append(col)
        rows.append(pv)
        combos.append(pc)
        work = [(v, combo) for v, combo in work if v]
    return pivots, rows, combos


def _express(ech, v):
    """Coordinates of v on the inputs of the tracked elimination, or
    None when v is outside their span."""
    pivots, rows, combos = ech
    rem, out = dict(v), {}
    for p, row, combo in zip(pivots, rows, combos):
        c = rem.get(p)
        if c is not None:
            vec_iaxpy(rem, -c, row)
            vec_iaxpy(out, c, combo)
    return None if rem else out


def rank(vectors, field) -> int:
    return len(_tracked_echelon(vectors, field)[0])


def _basis(comp, k):
    return sorted((n for n, deg in comp.degrees.items() if deg == k), key=str)


def cycles(comp, k) -> list[dict]:
    """A kernel basis of d_k: one vector per free column of the reduced
    transpose, columns in str order."""
    names = _basis(comp, k)
    by_target: dict = {}
    for n in names:
        for r, s in comp.d.get(n, {}).items():
            by_target.setdefault(r, {})[n] = s
    pivots, rows, _ = _tracked_echelon(list(by_target.values()), comp.field)
    pivot_set = set(pivots)
    out = []
    for f in names:
        if f in pivot_set:
            continue
        vec = {f: comp.field.one}
        for p, row in zip(pivots, rows):
            if f in row:
                vec[p] = -row[f]
        out.append(vec)
    return out


def homology_at(comp, k):
    """(dim, boundary_rank, representatives) of H_k."""
    boundaries = [comp.d.get(n, {}) for n in _basis(comp, k + 1)]
    pivots, rows, _ = _tracked_echelon(boundaries, comp.field)
    span = list(zip(pivots, rows))
    reps = []
    for z in cycles(comp, k):
        rem = dict(z)
        for p, row in span:
            c = rem.get(p)
            if c is not None:
                vec_iaxpy(rem, -c, row)
        if rem:
            piv = min(rem, key=str)
            span.append((piv, vec_scale(rem, rem[piv].inv())))
            reps.append(z)
    return len(reps), len(pivots), reps


def _renamed(comp):
    """The complex on zero-padded numerals numbered in str order: the same
    str order, and names that are cheap to hash."""
    new = {n: f"{i:09d}" for i, n in enumerate(sorted(comp.degrees, key=str))}
    return SimpleNamespace(
        field=comp.field,
        degrees={new[n]: k for n, k in comp.degrees.items()},
        d={new[c]: {new[r]: s for r, s in v.items()} for c, v in comp.d.items()})


def homology(comp, degrees=None) -> dict[int, tuple[int, int]]:
    """degree -> (dim, boundary_rank), over the complex's range by default."""
    if degrees is None:
        vals = comp.degrees.values()
        degrees = range(min(vals), max(vals) + 1) if vals else ()
    comp = _renamed(comp)
    return {k: homology_at(comp, k)[:2] for k in degrees}


def is_quasi_iso(cm, degrees) -> dict[int, QuasiIsoVerdict]:
    """Induced map on homology through the representatives."""
    out = {}
    field = cm.target.field
    for k in degrees:
        ks, kt = k, k + cm.degree
        s_dim, _, s_reps = homology_at(cm.source, ks)
        t_dim, _, t_reps = homology_at(cm.target, kt)
        boundaries = [cm.target.d.get(n, {}) for n in _basis(cm.target, kt + 1)]
        ech = _tracked_echelon(boundaries + t_reps, field)
        n_b = len(boundaries)
        induced = []
        for z in s_reps:
            coords = _express(ech, cm.apply(z))
            if coords is None:
                raise ComplexError("image of a cycle escaped the cycle space")
            induced.append({i - n_b: s for i, s in coords.items() if i >= n_b})
        r = rank(induced, field)
        out[k] = QuasiIsoVerdict(degree=k, source_dim=s_dim, target_dim=t_dim,
                                 induced_rank=r,
                                 isomorphism=(s_dim == t_dim == r))
    return out
