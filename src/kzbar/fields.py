"""Exact scalar arithmetic over the rationals and prime fields.

Every computation in this package is exact: rationals are stdlib
``Fraction`` values, and F_p elements are canonical residues in
``0..p-1``. There are no floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from kzbar import Frozen

_P_LIMIT = 2**31


class FieldMismatch(ValueError):
    """Raised when scalars from different fields are combined."""


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin; bases 2,3,5,7 decide primality below
    # 3,215,031,751 which covers the whole allowed range p < 2^31.
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec(Frozen):
    """Ground field description: kind ``"Q"`` or ``"Fp"`` (with a prime p).

    Equal and hashed by (kind, p); ``zero`` and ``one`` are built once
    per field, since the constants are read in every hot loop.
    """

    __slots__ = ("kind", "p", "zero", "one")

    def __init__(self, kind: str, p: int | None = None) -> None:
        if kind == "Q":
            if p is not None:
                raise ValueError("Q takes no characteristic parameter")
        elif kind == "Fp":
            if p is None or not isinstance(p, int):
                raise ValueError("Fp needs an integer characteristic")
            if p >= _P_LIMIT:
                raise ValueError(f"characteristic {p} out of range (need p < 2^31)")
            if not _is_prime(p):
                raise ValueError(f"characteristic {p} is not prime")
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "zero", self.scalar(0))
        object.__setattr__(self, "one", self.scalar(1))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not FieldSpec:
            return NotImplemented
        return self.kind == other.kind and self.p == other.p

    def __hash__(self) -> int:
        return hash((self.kind, self.p))

    def __repr__(self) -> str:
        return f"FieldSpec(kind={self.kind!r}, p={self.p!r})"

    @property
    def characteristic(self) -> int:
        return 0 if self.kind == "Q" else self.p  # type: ignore[return-value]

    def scalar(self, value: int | str | Fraction) -> Scalar:
        """Build a scalar from an int, a Fraction, or a string like ``-3/4``."""
        if isinstance(value, str):
            value = Fraction(value)
        if self.kind == "Q":
            return Scalar(self, Fraction(value))
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:  # type: ignore[operator]
                raise ZeroDivisionError(f"denominator not invertible in F_{self.p}")
            num = value.numerator % self.p  # type: ignore[operator]
            return Scalar(self, num * pow(value.denominator, -1, self.p) % self.p)
        return Scalar(self, value % self.p)  # type: ignore[operator]

    def raw(self, c: Scalar) -> Fraction | int:
        """The value of c, for arithmetic outside ``Scalar``; raises
        FieldMismatch unless c lies in this field."""
        if c.field is not self and c.field != self:
            raise FieldMismatch(f"cannot combine {self} with {c.field}")
        return c.val

    def __str__(self) -> str:
        return "Q" if self.kind == "Q" else f"F{self.p}"


class Scalar(Frozen):
    """Immutable field element; arithmetic on mixed fields raises.

    ``val`` is a Fraction for Q and a canonical residue for F_p.
    """

    __slots__ = ("field", "val")

    def __init__(self, field: FieldSpec, val: Fraction | int) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "val", val)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Scalar:
            return NotImplemented
        return (self.field, self.val) == (other.field, other.val)

    def __hash__(self) -> int:
        return hash((self.field, self.val))

    def _check(self, other: Scalar) -> None:
        if self.field != other.field:
            raise FieldMismatch(f"cannot combine {self.field} with {other.field}")

    def __add__(self, other: Scalar) -> Scalar:
        self._check(other)
        v = self.val + other.val
        if self.field.kind == "Fp":
            v %= self.field.p  # type: ignore[operator]
        return Scalar(self.field, v)

    def __sub__(self, other: Scalar) -> Scalar:
        self._check(other)
        v = self.val - other.val
        if self.field.kind == "Fp":
            v %= self.field.p  # type: ignore[operator]
        return Scalar(self.field, v)

    def __mul__(self, other: Scalar) -> Scalar:
        self._check(other)
        v = self.val * other.val
        if self.field.kind == "Fp":
            v %= self.field.p  # type: ignore[operator]
        return Scalar(self.field, v)

    def __neg__(self) -> Scalar:
        v = -self.val
        if self.field.kind == "Fp":
            v %= self.field.p  # type: ignore[operator]
        return Scalar(self.field, v)

    def inv(self) -> Scalar:
        if not self.val:
            raise ZeroDivisionError(f"division by zero in {self.field}")
        if self.field.kind == "Q":
            return Scalar(self.field, 1 / self.val)
        return Scalar(self.field, pow(self.val, -1, self.field.p))  # type: ignore[arg-type]

    def __truediv__(self, other: Scalar) -> Scalar:
        self._check(other)
        return self * other.inv()

    def __bool__(self) -> bool:
        return bool(self.val)

    def is_zero(self) -> bool:
        return not self.val

    def scaled(self, k: int) -> Scalar:
        """Multiply by a plain integer (sign flips, small multiples)."""
        v = self.val * k
        if self.field.kind == "Fp":
            v %= self.field.p  # type: ignore[operator]
        return Scalar(self.field, v)

    def __str__(self) -> str:
        return str(self.val)

    def __repr__(self) -> str:
        return f"{self.val}:{self.field}"


QQ = FieldSpec("Q")


def GF(p: int) -> FieldSpec:
    return FieldSpec("Fp", p)
