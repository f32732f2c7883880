"""Reference tree operations that rescan the successor map on every call.

``children`` walks all of ``s`` for each vertex, and ``encode`` and
``canonical_form`` recurse through ``subtree_at`` and ``assemble`` with
no memo, as ``kzbar.trees`` first wrote them.  They read nothing the tree stores
besides ``(n, s, L, sorts)``; the tests compare them with the stored
child table and the memoized canonical form.
"""

from __future__ import annotations

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
