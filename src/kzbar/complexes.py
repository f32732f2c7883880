"""Chain complexes with exact homology.

A complex is a finitely supported graded basis plus a degree-lowering
differential stored as sparse columns of raw values (residues mod p or
Fractions).  The public constructor unboxes Scalar columns once, each
coefficient's field checked; internal builders hand raw columns to
``ChainComplex.from_raw``.  Either way the degrees and d*d = 0 are
certified on the raw columns at construction, so a ChainComplex that
exists is a chain complex.  ``d`` is the boxed view, built on first read.

Ranks are eliminated forward from a per-degree index of the basis, in
construction order: a rank depends on no order, so no basis is sorted
for it.  ``basis`` sorts by str for the callers that read an order.
``ChainMap`` holds raw entries the same way and certifies the chain-map
law on raw values.  Scalars appear only at the public edge: the
constructors' Scalar input, the boxed views ``d`` and ``entries``,
``apply_d``, ``apply`` and the witnesses in a failure message.
"""

from __future__ import annotations

from typing import Hashable, Iterable, NamedTuple

from kzbar import KzbarError
from kzbar.fields import FieldSpec
from kzbar.linalg import (
    Vec,
    kernel_raw,
    rank_raw,
    raw_iaxpy,
    vec_box,
    vec_iaxpy,
)

Name = Hashable


class ComplexError(KzbarError):
    """Construction-time violation: bad degrees or d*d != 0."""


def _name_key(n: Name) -> str:
    return str(n)


def _unbox_columns(field: FieldSpec, columns: dict) -> dict:
    """Scalar columns as raw ones, each coefficient's field checked, zero
    entries and empty columns dropped."""
    raw = field.raw
    out = {}
    for c, v in columns.items():
        col = {}
        for k, s in v.items():
            x = raw(s)
            if x:
                col[k] = x
        if col:
            out[c] = col
    return out


def _apply_raw(columns: dict, v: dict, p: int | None) -> dict:
    """The raw vector v sent through raw columns."""
    out: dict = {}
    for n, s in v.items():
        col = columns.get(n)
        if col:
            raw_iaxpy(out, s, col, p)
    return out


class ChainComplex:
    """Graded module with differential; all data exact and finite.

    degrees: name -> integer degree.
    raw_d: column form, name -> raw vector (a dict) in one degree lower;
    ``d`` boxes it when first read.
    """

    def __init__(
        self,
        field: FieldSpec,
        degrees: dict[Name, int],
        d: dict[Name, Vec] | None = None,
    ) -> None:
        self._setup(field, degrees, _unbox_columns(field, d or {}))

    @classmethod
    def from_raw(cls, field: FieldSpec, degrees: dict[Name, int],
                 raw_d: dict[Name, dict]) -> "ChainComplex":
        """A complex on raw columns, whose values are nonzero and reduced;
        the columns are kept, not copied, and must not change after."""
        self = cls.__new__(cls)
        self._setup(field, degrees, {c: v for c, v in raw_d.items() if v})
        return self

    def _setup(self, field: FieldSpec, degrees: dict, raw_d: dict) -> None:
        self.field = field
        self.degrees = dict(degrees)
        self.raw_d: dict[Name, dict] = raw_d
        self._by_degree: dict[int, list] = {}
        for n, k in self.degrees.items():
            self._by_degree.setdefault(k, []).append(n)
        self._boxed: dict | None = None
        self._validate()
        self._d_ranks: dict[int, int] = {}

    @property
    def d(self) -> dict[Name, Vec]:
        """The differential's columns as Scalars, boxed on first read."""
        if self._boxed is None:
            self._boxed = {c: vec_box(v, self.field) for c, v in self.raw_d.items()}
        return self._boxed

    def _validate(self) -> None:
        degrees = self.degrees
        for c, v in self.raw_d.items():
            if c not in degrees:
                raise ComplexError(f"differential column {c!r} is not a basis name")
            for r in v:
                if r not in degrees:
                    raise ComplexError(f"differential target {r!r} is not a basis name")
                if degrees[r] != degrees[c] - 1:
                    raise ComplexError(
                        f"d must lower degree by 1: {c!r} (deg {degrees[c]}) "
                        f"hits {r!r} (deg {degrees[r]})"
                    )
        p = self.field.p
        for c, v in self.raw_d.items():
            dd = _apply_raw(self.raw_d, v, p)
            if dd:
                raise ComplexError(
                    f"d*d != 0 on basis element {c!r}: {vec_box(dd, self.field)}")

    def basis(self, degree: int | None = None) -> list[Name]:
        names = self.degrees if degree is None else self._by_degree.get(degree, ())
        return sorted(names, key=_name_key)

    def degree_range(self) -> tuple[int, int]:
        if not self.degrees:
            return (0, -1)
        return (min(self._by_degree), max(self._by_degree))

    def apply_d(self, v: Vec) -> Vec:
        out: dict = {}
        F = self.field
        for n, s in v.items():
            col = self.raw_d.get(n)
            if col and s:
                raw_iaxpy(out, F.raw(s), col, F.p)
        return vec_box(out, F)

    def dim(self, degree: int | None = None) -> int:
        if degree is None:
            return len(self.degrees)
        return len(self._by_degree.get(degree, ()))

    def _raw_columns(self, degree: int) -> dict[Name, dict]:
        """The raw columns out of one degree, in construction order."""
        raw_d = self.raw_d
        return {n: raw_d.get(n, {}) for n in self._by_degree.get(degree, ())}

    def d_rank(self, k: int) -> int:
        """Rank of d out of degree k, eliminated on first use and memoized:
        a complex is never changed after construction."""
        r = self._d_ranks.get(k)
        if r is None:
            r = self._d_ranks[k] = rank_raw(self._raw_columns(k).values(), self.field)
        return r

    def homology(self, degrees: Iterable[int] | None = None) -> dict[int, "HomologySummary"]:
        """H_k for each k, over the complex's degree range by default:

            boundary_rank = rk d_{k+1},  dim = #C_k - rk d_k - rk d_{k+1}.

        A sweep over degrees lo..hi eliminates each d once.  A rank depends
        neither on the order of the columns nor on the pivots chosen, so
        these numbers are functions of the complex alone.
        """
        if degrees is None:
            lo, hi = self.degree_range()
            degrees = range(lo, hi + 1)
        out = {}
        for k in degrees:
            out[k] = self._homology_at(k)
        return out

    def _homology_at(self, k: int) -> "HomologySummary":
        b_rank = self.d_rank(k + 1)
        return HomologySummary(degree=k, dim=self.dim(k) - self.d_rank(k) - b_rank,
                               boundary_rank=b_rank)


def direct_sum(parts: dict[Name, "ChainComplex"]) -> "ChainComplex":
    """One complex from several, names prefixed by the part key."""
    field = None
    degrees: dict[Name, int] = {}
    d: dict[Name, dict] = {}
    for tag, comp in sorted(parts.items(), key=lambda kv: _name_key(kv[0])):
        if field is None:
            field = comp.field
        elif comp.field != field:
            raise ComplexError("direct sum parts must share the field")
        for n, k in comp.degrees.items():
            degrees[(tag, n)] = k
        for c, col in comp.raw_d.items():
            d[(tag, c)] = {(tag, r): s for r, s in col.items()}
    if field is None:
        raise ComplexError("direct sum needs at least one part")
    return ChainComplex.from_raw(field, degrees, d)


class HomologySummary(NamedTuple):
    degree: int
    dim: int
    boundary_rank: int


class ChainMap:
    """Map of complexes of a fixed degree r, with d f = (-1)^r f d enforced.

    ``raw_entries`` holds the columns as raw values; ``entries`` boxes
    them when first read.
    """

    def __init__(
        self,
        source: ChainComplex,
        target: ChainComplex,
        entries: dict[Name, Vec],
        degree: int = 0,
    ) -> None:
        if source.field != target.field:
            raise ComplexError("chain map endpoints must share a field")
        self._setup(source, target, _unbox_columns(source.field, entries), degree)

    @classmethod
    def from_raw(cls, source: ChainComplex, target: ChainComplex,
                 raw_entries: dict[Name, dict], degree: int = 0) -> "ChainMap":
        """A map on raw columns, nonzero and reduced, kept uncopied."""
        if source.field != target.field:
            raise ComplexError("chain map endpoints must share a field")
        self = cls.__new__(cls)
        self._setup(source, target, {c: v for c, v in raw_entries.items() if v},
                    degree)
        return self

    def _setup(self, source, target, raw_entries: dict, degree: int) -> None:
        self.source = source
        self.target = target
        self.degree = degree
        self.raw_entries = raw_entries
        self._boxed: dict | None = None
        self._validate()

    @property
    def entries(self) -> dict[Name, Vec]:
        if self._boxed is None:
            F = self.source.field
            self._boxed = {c: vec_box(v, F) for c, v in self.raw_entries.items()}
        return self._boxed

    def _validate(self) -> None:
        src, tgt = self.source, self.target
        for c, v in self.raw_entries.items():
            kc = src.degrees[c]
            for r in v:
                if tgt.degrees[r] != kc + self.degree:
                    raise ComplexError(
                        f"map must shift degree by {self.degree}: {c!r} -> {r!r}"
                    )
        # d f = (-1)^r f d on every basis element, on raw values; the
        # str-least failure is boxed for the message
        p, odd = src.field.p, self.degree % 2
        entries = self.raw_entries
        bad = []
        for c in src.degrees:
            lhs = _apply_raw(tgt.raw_d, entries.get(c, {}), p)
            rhs = _apply_raw(entries, src.raw_d.get(c, {}), p)
            if odd:
                rhs = {k: -x % p if p else -x for k, x in rhs.items()}
            if lhs != rhs:
                bad.append(c)
        if bad:
            c = min(bad, key=_name_key)
            one = src.field.one
            lhs = tgt.apply_d(self.apply({c: one}))
            rhs = self.apply(src.d.get(c, {}))
            if odd:
                rhs = {k: -x for k, x in rhs.items()}
            raise ComplexError(f"not a chain map at {c!r}: d f = {lhs}, f d = {rhs}")

    def apply(self, v: Vec) -> Vec:
        out: Vec = {}
        for n, s in v.items():
            vec_iaxpy(out, s, self.entries.get(n, {}))
        return out

    def is_quasi_iso(self, degrees: Iterable[int]) -> dict[int, "QuasiIsoVerdict"]:
        """Induced-map check on homology, degree by degree.

        Both homology summaries come from the endpoints' rank memos.  With
        Z the cycles of the source in degree k and B the boundaries of the
        target in degree k + r, the image of H_k(f) is (f(Z) + B)/B, so

            induced_rank = rk(B + f(Z)) - rk B.

        Ranks depend on no choice of kernel basis or pivot, so neither can
        move a verdict.  Every f(z) is checked to be a cycle.  The
        elimination that gives Z also gives rk d_k = #C_k - #Z, which
        seeds a cold rank memo of the source; the degrees run from the
        top down, so the summary at k - 1 finds rk d_k seeded.  Everything
        runs on raw values.
        """
        degrees = list(degrees)
        out = {}
        field = self.target.field
        p = field.p
        src, tgt = self.source, self.target
        for k in sorted(degrees, reverse=True):
            kt = k + self.degree
            columns = src._raw_columns(k)
            cycles = kernel_raw(columns, field)
            src._d_ranks.setdefault(k, len(columns) - len(cycles))
            hs = src._homology_at(k)
            ht = tgt._homology_at(kt)
            images = [_apply_raw(self.raw_entries, z, p) for z in cycles]
            if any(_apply_raw(tgt.raw_d, fz, p) for fz in images):
                raise ComplexError("image of a cycle escaped the cycle space")
            boundaries = list(tgt._raw_columns(kt + 1).values())
            r = rank_raw(boundaries + images, field) - ht.boundary_rank
            out[k] = QuasiIsoVerdict(
                degree=k,
                source_dim=hs.dim,
                target_dim=ht.dim,
                induced_rank=r,
                isomorphism=(hs.dim == ht.dim == r),
            )
        return {k: out[k] for k in degrees}


class QuasiIsoVerdict(NamedTuple):
    degree: int
    source_dim: int
    target_dim: int
    induced_rank: int
    isomorphism: bool
