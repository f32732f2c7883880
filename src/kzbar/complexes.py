"""Chain complexes with exact homology.

A complex is a finitely supported graded basis plus a degree-lowering
differential stored as sparse columns. d*d = 0 is checked at construction,
so a ChainComplex that exists is a chain complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

from kzbar.fields import FieldSpec
from kzbar.linalg import Vec, kernel_of_map, rank, vec_iaxpy, vec_scale

Name = Hashable


class ComplexError(ValueError):
    """Construction-time violation: bad degrees or d*d != 0."""


def _name_key(n: Name) -> str:
    return str(n)


class ChainComplex:
    """Graded module with differential; all data exact and finite.

    degrees: name -> integer degree.
    d: column form, name -> vector (a dict) in one degree lower.
    """

    def __init__(
        self,
        field: FieldSpec,
        degrees: dict[Name, int],
        d: dict[Name, Vec] | None = None,
    ) -> None:
        self.field = field
        self.degrees = dict(degrees)
        self.d: dict[Name, Vec] = {}
        for c, v in (d or {}).items():
            v = {k: s for k, s in v.items() if not s.is_zero()}
            if v:
                self.d[c] = v
        self._validate()
        self._d_ranks: dict[int, int] = {}

    def _validate(self) -> None:
        for c, v in self.d.items():
            if c not in self.degrees:
                raise ComplexError(f"differential column {c!r} is not a basis name")
            for r, s in v.items():
                if r not in self.degrees:
                    raise ComplexError(f"differential target {r!r} is not a basis name")
                if self.degrees[r] != self.degrees[c] - 1:
                    raise ComplexError(
                        f"d must lower degree by 1: {c!r} (deg {self.degrees[c]}) "
                        f"hits {r!r} (deg {self.degrees[r]})"
                    )
        for c in self.d:
            dd = self.apply_d(self.d[c])
            if dd:
                raise ComplexError(f"d*d != 0 on basis element {c!r}: {dd}")

    def basis(self, degree: int | None = None) -> list[Name]:
        names = (
            self.degrees.keys()
            if degree is None
            else (n for n, k in self.degrees.items() if k == degree)
        )
        return sorted(names, key=_name_key)

    def degree_range(self) -> tuple[int, int]:
        if not self.degrees:
            return (0, -1)
        vals = self.degrees.values()
        return (min(vals), max(vals))

    def apply_d(self, v: Vec) -> Vec:
        out: Vec = {}
        for n, s in v.items():
            vec_iaxpy(out, s, self.d.get(n, {}))
        return out

    def dim(self, degree: int | None = None) -> int:
        if degree is None:
            return len(self.degrees)
        return sum(1 for k in self.degrees.values() if k == degree)

    def d_columns(self, degree: int) -> dict[Name, Vec]:
        """Columns of d restricted to the given source degree."""
        return {n: self.d.get(n, {}) for n in self.basis(degree)}

    def d_rank(self, k: int) -> int:
        """Rank of d out of degree k, eliminated on first use and memoized:
        a complex is never changed after construction."""
        r = self._d_ranks.get(k)
        if r is None:
            r = self._d_ranks[k] = rank(self.d_columns(k).values(), self.field)
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

    def shift(self, n: int) -> "ChainComplex":
        """Suspension by n: degrees go up by n, d is scaled by (-1)^n."""
        sign = self.field.one if n % 2 == 0 else -self.field.one
        d = {c: vec_scale(v, sign) for c, v in self.d.items()}
        return ChainComplex(self.field, {m: k + n for m, k in self.degrees.items()}, d)

    def tensor(self, other: "ChainComplex") -> "ChainComplex":
        """Tensor product with the Koszul sign on the second factor."""
        if self.field != other.field:
            raise ComplexError("tensor factors must share a field")
        degrees: dict[Name, int] = {}
        d: dict[Name, Vec] = {}
        for a, ka in self.degrees.items():
            sign_a = self.field.one if ka % 2 == 0 else -self.field.one
            for b, kb in other.degrees.items():
                degrees[(a, b)] = ka + kb
                col: Vec = {}
                for r, s in self.d.get(a, {}).items():
                    col[(r, b)] = s
                for r, s in other.d.get(b, {}).items():
                    col[(a, r)] = s * sign_a
                if col:
                    d[(a, b)] = col
        return ChainComplex(self.field, degrees, d)


def direct_sum(parts: dict[Name, "ChainComplex"]) -> "ChainComplex":
    """One complex from several, names prefixed by the part key."""
    field = None
    degrees: dict[Name, int] = {}
    d: dict[Name, Vec] = {}
    for tag, comp in sorted(parts.items(), key=lambda kv: _name_key(kv[0])):
        if field is None:
            field = comp.field
        elif comp.field != field:
            raise ComplexError("direct sum parts must share the field")
        for n, k in comp.degrees.items():
            degrees[(tag, n)] = k
        for c, col in comp.d.items():
            d[(tag, c)] = {(tag, r): s for r, s in col.items()}
    if field is None:
        raise ComplexError("direct sum needs at least one part")
    return ChainComplex(field, degrees, d)


@dataclass
class HomologySummary:
    degree: int
    dim: int
    boundary_rank: int


class ChainMap:
    """Map of complexes of a fixed degree r, with d f = (-1)^r f d enforced."""

    def __init__(
        self,
        source: ChainComplex,
        target: ChainComplex,
        entries: dict[Name, Vec],
        degree: int = 0,
    ) -> None:
        if source.field != target.field:
            raise ComplexError("chain map endpoints must share a field")
        self.source = source
        self.target = target
        self.degree = degree
        self.entries = {c: {k: s for k, s in v.items() if not s.is_zero()} for c, v in entries.items()}
        self.entries = {c: v for c, v in self.entries.items() if v}
        self._validate()

    def _validate(self) -> None:
        for c, v in self.entries.items():
            kc = self.source.degrees[c]
            for r in v:
                if self.target.degrees[r] != kc + self.degree:
                    raise ComplexError(
                        f"map must shift degree by {self.degree}: {c!r} -> {r!r}"
                    )
        sign = 1 if self.degree % 2 == 0 else -1
        for c in self.source.basis():
            lhs = self.target.apply_d(self.apply({c: self.source.field.one}))
            rhs = self.apply(self.source.d.get(c, {}))
            if sign < 0:
                rhs = vec_scale(rhs, -self.source.field.one)
            if lhs != rhs:
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
        top down, so the summary at k - 1 finds rk d_k seeded.
        """
        degrees = list(degrees)
        out = {}
        field = self.target.field
        src = self.source
        for k in sorted(degrees, reverse=True):
            kt = k + self.degree
            columns = src.d_columns(k)
            cycles = kernel_of_map(columns, field)
            src._d_ranks.setdefault(k, len(columns) - len(cycles))
            hs = src._homology_at(k)
            ht = self.target._homology_at(kt)
            images = [self.apply(z) for z in cycles]
            if any(self.target.apply_d(fz) for fz in images):
                raise ComplexError("image of a cycle escaped the cycle space")
            boundaries = list(self.target.d_columns(kt + 1).values())
            r = rank(boundaries + images, field) - ht.boundary_rank
            out[k] = QuasiIsoVerdict(
                degree=k,
                source_dim=hs.dim,
                target_dim=ht.dim,
                induced_rank=r,
                isomorphism=(hs.dim == ht.dim == r),
            )
        return {k: out[k] for k in degrees}


@dataclass
class QuasiIsoVerdict:
    degree: int
    source_dim: int
    target_dim: int
    induced_rank: int
    isomorphism: bool
