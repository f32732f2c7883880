"""Reference tree operations that rescan the successor map on every call.

``children`` walks all of ``s`` for each vertex, and ``encode`` and
``canonical_form`` recurse through ``subtree_at`` and ``assemble`` with
no memo, as ``kzbar.trees`` first wrote them.  They read nothing the tree stores
besides ``(n, s, L, sorts)``; the tests compare them with the stored
child table and the memoized canonical form.

``enumerate_trees`` searches and filters: it builds every planar tree
over every composition of its root's subtree sizes, assigns sorts to each
one in every way, and keeps the trees this module's ``canonical_form``
fixes, as ``kzbar.trees`` did before it grew canonical trees directly.
"""

from __future__ import annotations

from functools import cache
from itertools import product

from kzbar.trees import Tree, assemble, subtree_at


def children(t: Tree, v: int) -> list[int]:
    return [x for x in range(1, t.n) if t.s[x - 1] == v]


def root_blocks(t: Tree) -> list[tuple[int, int]]:
    if t.n == 1:
        return []
    ks = [x for x in range(1, t.n) if t.s[x - 1] == t.n]
    out = []
    prev = 0
    for k in ks:
        out.append((prev, k - prev))
        prev = k
    return out


def encode(t: Tree) -> tuple:
    srt = t.sort_of(t.n) or ""
    if t.n in t.L:
        return (0, srt)
    subs = [subtree_at(t, off, size) for off, size in root_blocks(t)]
    return (1, srt, tuple(sorted(encode(st) for st in subs)))


def canonical_form(t: Tree) -> tuple[Tree, tuple[int, ...]]:
    if t.n == 1:
        return t, (1,)
    blocks = root_blocks(t)
    subs = []
    for off, size in blocks:
        ct, sig = canonical_form(subtree_at(t, off, size))
        subs.append((ct, sig, off, size))
    order = sorted(range(len(subs)), key=lambda q: encode(subs[q][0]))
    out = assemble([subs[q][0] for q in order], t.sort_of(t.n))
    new_off = [0] * len(subs)
    acc = 0
    for i in order:
        new_off[i] = acc
        acc += subs[i][3]
    sigma = [0] * t.n
    for q, (ct, sig, off, size) in enumerate(subs):
        for j in range(1, size + 1):
            sigma[off + j - 1] = new_off[q] + sig[j - 1]
    sigma[t.n - 1] = t.n
    return out, tuple(sigma)


@cache
def all_trees(n: int) -> tuple[Tree, ...]:
    if n == 1:
        return (Tree(1, (), frozenset({1})), Tree(1, (), frozenset()))
    out: list[Tree] = []
    for comp in compositions(n - 1):
        for subs in product(*(all_trees(k) for k in comp)):
            out.append(assemble(list(subs)))
    return tuple(out)


def compositions(total: int) -> list[tuple[int, ...]]:
    if total == 0:
        return [()]
    out = []
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            out.append((first,) + rest)
    return out


def enumerate_trees(n: int, up_to_equiv: bool = False,
                    sorts: tuple[str, ...] | None = None) -> list[Tree]:
    out = []
    for t in all_trees(n):
        for assignment in [None] if sorts is None else product(sorts, repeat=n):
            st = Tree(t.n, t.s, t.L, assignment)
            if not up_to_equiv or canonical_form(st)[0] == st:
                out.append(st)
    return out
