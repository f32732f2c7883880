"""Mixed exterior/Clifford sign words.

Generators: e_i with e_i^2 = 0, f_j with f_j^2 = 1, and every pair of
distinct generators anticommutes (e-e, f-f, and e-f alike). A word is kept
in normal form: ascending e's, then ascending f's, with an overall sign.
The e and f generators live in degree 0; all signs here are plain +-1.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from typing import Callable, Iterable

from kzbar.trees import Tree


@dataclass(frozen=True)
class SignWord:
    """Normalized monomial; sign 0 encodes the zero word (es/fs then empty)."""

    sign: int
    es: tuple[int, ...] = ()
    fs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0, or 1, not {self.sign}")
        if self.sign == 0 and (self.es or self.fs):
            raise ValueError("the zero word carries no generators")
        if list(self.es) != sorted(set(self.es)) or list(self.fs) != sorted(set(self.fs)):
            raise ValueError("word not in normal form (strictly ascending indices)")
        if any(i < 1 for i in self.es + self.fs):
            raise ValueError("generator indices start at 1")

    def is_zero(self) -> bool:
        return self.sign == 0

    def __str__(self) -> str:
        if self.sign == 0:
            return "0"
        body = " ".join([f"e{i}" for i in self.es] + [f"f{i}" for i in self.fs])
        if not body:
            return "1" if self.sign > 0 else "-1"
        return body if self.sign > 0 else "-" + body


ZERO = SignWord(0)
ONE = SignWord(1)


def _normalize(sign: int, gens: Iterable[tuple[str, int]]) -> SignWord:
    """Insert generators one by one, counting anticommutation crossings.

    Ordering: every e before every f, each species ascending. Equal e's
    annihilate to zero; equal f's cancel in adjacent pairs via f^2 = 1.
    """
    out: list[tuple[str, int]] = []
    for g in gens:
        pos = len(out)
        # walk left past strictly greater generators; ('e', i) < ('f', j)
        while pos > 0 and out[pos - 1] > g:
            pos -= 1
            sign = -sign
        if pos > 0 and out[pos - 1] == g:
            if g[0] == "e":
                return ZERO
            out.pop(pos - 1)
            continue
        out.insert(pos, g)
    es = tuple(i for k, i in out if k == "e")
    fs = tuple(i for k, i in out if k == "f")
    return SignWord(sign, es, fs)


def word(es: Iterable[int] = (), fs: Iterable[int] = (), sign: int = 1) -> SignWord:
    """Build the normal form of sign * (product of e's) * (product of f's)."""
    gens = [("e", i) for i in es] + [("f", i) for i in fs]
    return _normalize(sign, gens)


def multiply(w1: SignWord, w2: SignWord) -> SignWord:
    if w1.sign == 0 or w2.sign == 0:
        return ZERO
    gens = (
        [("e", i) for i in w1.es]
        + [("f", i) for i in w1.fs]
        + [("e", i) for i in w2.es]
        + [("f", i) for i in w2.fs]
    )
    return _normalize(w1.sign * w2.sign, gens)


def partial_e(j: int, w: SignWord) -> SignWord:
    """Left exterior differentiation by e_j."""
    if w.sign == 0 or j not in w.es:
        return ZERO
    pos = w.es.index(j)
    sign = w.sign * (-1) ** pos
    return SignWord(sign, w.es[:pos] + w.es[pos + 1 :], w.fs)


def left_mul_f(i: int, w: SignWord) -> SignWord:
    """Clifford left multiplication by f_i."""
    if w.sign == 0:
        return ZERO
    sign = w.sign * (-1) ** len(w.es)
    if i in w.fs:
        pos = w.fs.index(i)
        return SignWord(sign * (-1) ** pos, w.es, w.fs[:pos] + w.fs[pos + 1 :])
    smaller = sum(1 for j in w.fs if j < i)
    fs = tuple(sorted(w.fs + (i,)))
    return SignWord(sign * (-1) ** smaller, w.es, fs)


def inversion_parity(xs) -> bool:
    """Whether a sequence of distinct numbers has an odd number of pairs
    out of ascending order."""
    odd = False
    for i, x in enumerate(xs):
        for y in xs[i + 1:]:
            odd ^= x > y
    return odd


def block_swap_sign(w: SignWord, a: int, b: int, c: int) -> int:
    """The sign that exchanging the adjacent index blocks a+1..b and
    b+1..c puts on w, relative to w's own: each generator in one block
    passes each of its species in the other, as ``relabel`` orders them."""
    cross = 0
    for xs in (w.es, w.fs):
        cross += (bisect(xs, b) - bisect(xs, a)) * (bisect(xs, c) - bisect(xs, b))
    return -1 if cross % 2 else 1


def relabel(
    w: SignWord,
    rho: Callable[[int], int] | dict[int, int],
    target: Tree | None = None,
) -> SignWord:
    """Apply an index map to every generator in place, then renormalize.

    Injective on each species, the map signs the word by the inversion
    parity of its e's and of its f's.  rho need not be injective:
    colliding e's kill the word, colliding f's cancel in pairs with the
    accumulated anticommutation signs.
    """
    if w.sign == 0:
        return ZERO
    get = rho.__getitem__ if isinstance(rho, dict) else rho
    es = [get(i) for i in w.es]
    fs = [get(i) for i in w.fs]
    if len(set(es)) == len(es) and len(set(fs)) == len(fs):
        # no collision: each e and each f moves past the ones of its own
        # species that it overtakes, and never past one of the other
        odd = inversion_parity(es) ^ inversion_parity(fs)
        out = SignWord(-w.sign if odd else w.sign, tuple(sorted(es)), tuple(sorted(fs)))
    else:
        out = _normalize(w.sign, [("e", i) for i in es] + [("f", i) for i in fs])
    if target is not None and out.sign != 0:
        ok_e = set(target.non_leaves())
        if not set(out.es) <= ok_e or not all(1 <= i <= target.n for i in out.fs):
            raise ValueError(f"relabeled word {out} does not fit {target}")
    return out


def det_generator(t: Tree) -> SignWord:
    """Ascending product of e_v over every labeled (non-leaf) vertex of t.

    The root contributes its generator too; the word length equals the
    structural degree of the tree.
    """
    return SignWord(1, tuple(t.non_leaves()), ())


def check_word(t: Tree, w: SignWord) -> None:
    """Assert w fits the tree: e's on non-leaves, f's on any vertex."""
    if w.sign == 0:
        return
    bad_e = set(w.es) - set(t.non_leaves())
    if bad_e:
        raise ValueError(f"e-indices {sorted(bad_e)} are not labeled vertices of {t}")
    bad_f = {i for i in w.fs if not 1 <= i <= t.n}
    if bad_f:
        raise ValueError(f"f-indices {sorted(bad_f)} outside 1..{t.n}")
