"""Planar rooted trees on vertex set {1..n} with successor maps.

A tree is (n, s, L): the root is n, s sends each non-root vertex to its
parent, and L marks the leaves (inputs). Vertices outside L with no
children are legal; they carry 0-ary operad labels. Vertex numbering is
depth-first: each subtree occupies a contiguous index range ending at its
root, which is what conditions (1) and (2) below enforce.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from typing import NamedTuple

from kzbar import ENUMERATION_CAP, Frozen, KzbarError


class TreeError(KzbarError):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class Tree(Frozen):
    """A tree compared by value on (n, s, L, sorts).

    ``s[x-1]`` is the parent of vertex x, for x in 1..n-1.  The hash, the
    child table and the subtree sizes are computed once at construction;
    ``kids[v]`` lists v's children left to right and ``sizes[v]`` counts
    v's subtree, both indexed by vertex (index 0 is unused).
    """

    __slots__ = ("n", "s", "L", "sorts", "kids", "sizes", "_hash")

    def __init__(self, n: int, s: tuple[int, ...], L: frozenset[int],
                 sorts: tuple[str, ...] | None = None) -> None:
        kids: list[list[int]] = [[] for _ in range(n + 1)]
        for x, p in enumerate(s, 1):
            kids[p].append(x)
        sizes = [1] * (n + 1)
        for v in range(1, n + 1):  # children precede parents: condition (1)
            for c in kids[v]:
                sizes[v] += sizes[c]
        setattr_ = object.__setattr__
        setattr_(self, "n", n)
        setattr_(self, "s", s)
        setattr_(self, "L", L)
        setattr_(self, "sorts", sorts)
        setattr_(self, "kids", tuple(map(tuple, kids)))
        setattr_(self, "sizes", tuple(sizes))
        setattr_(self, "_hash", hash((n, s, L, sorts)))

    def __repr__(self) -> str:
        # bar keys are ordered by str((tree, labels)): this string fixes
        # pivots and report bytes
        return f"Tree(n={self.n!r}, s={self.s!r}, L={self.L!r}, sorts={self.sorts!r})"

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not Tree:
            return NotImplemented
        return (self._hash == other._hash and self.n == other.n
                and self.s == other.s and self.L == other.L
                and self.sorts == other.sorts)

    def parent(self, x: int) -> int:
        return self.s[x - 1]

    def is_leaf(self, x: int) -> bool:
        return x in self.L

    def children(self, v: int) -> list[int]:
        return list(self.kids[v])

    def valence(self, v: int) -> int:
        return len(self.kids[v])

    def non_leaves(self) -> list[int]:
        """All vertices carrying operad labels, root included."""
        return [v for v in range(1, self.n + 1) if v not in self.L]

    def sort_of(self, v: int) -> str | None:
        return None if self.sorts is None else self.sorts[v - 1]

    def __str__(self) -> str:
        parts = [f"tree({self.n}"]
        if self.s:
            parts.append("; s: " + ", ".join(f"{x + 1}->{p}" for x, p in enumerate(self.s)))
        parts.append("; L: {" + ", ".join(str(x) for x in sorted(self.L)) + "}")
        if self.sorts is not None:
            parts.append("; f: " + ", ".join(f"{i + 1}:{f}" for i, f in enumerate(self.sorts)))
        return "".join(parts) + ")"


class ContractionWitness(NamedTuple):
    """Result of a contraction plus the vertex correspondences.

    tau embeds the result's vertices into the source; rho collapses the
    source onto the result, rho o tau = id.
    """

    result: Tree
    tau: tuple[int, ...]  # result vertex k -> source vertex tau[k-1]
    rho: tuple[int, ...]  # source vertex v -> result vertex rho[v-1]


def validate(
    n: int,
    s: dict[int, int] | tuple[int, ...],
    L: frozenset[int] | set[int],
    sorts: tuple[str, ...] | dict[int, str] | None = None,
) -> Tree:
    """Check every tree condition; raise TreeError listing ALL violations."""
    violations: list[str] = []
    if not isinstance(n, int) or n < 1:
        raise TreeError([f"vertex count {n} must be a positive integer"])
    if isinstance(s, dict):
        if set(s.keys()) != set(range(1, n)):
            violations.append(f"s must be defined exactly on 1..{n - 1}")
            raise TreeError(violations)
        s = tuple(s[x] for x in range(1, n))
    if len(s) != n - 1:
        raise TreeError([f"s has {len(s)} entries, expected {n - 1}"])
    L = frozenset(L)
    for x in L:
        if not (1 <= x <= n):
            violations.append(f"leaf {x} outside 1..{n}")
    for x in range(1, n):
        p = s[x - 1]
        if not (1 <= p <= n):
            violations.append(f"s({x}) = {p} outside 1..{n}")
        elif p <= x:
            violations.append(f"condition (1) violated: s({x}) = {p} is not > {x}")
    for x in range(1, n):
        sx = s[x - 1]
        for y in range(x, min(sx, n)):
            if s[y - 1] > sx:
                violations.append(
                    f"condition (2) violated: {x} <= {y} < s({x})={sx} but s({y})={s[y - 1]} > {sx}"
                )
    for x in range(1, n):
        if s[x - 1] in L:
            violations.append(f"successor codomain violated: s({x}) = {s[x - 1]} is a leaf")
    if n in L and n != 1:
        violations.append(f"root-leaf rule violated: {n} in L requires n = 1")
    if sorts is not None:
        if isinstance(sorts, dict):
            if set(sorts.keys()) != set(range(1, n + 1)):
                violations.append(f"sorts must be defined exactly on 1..{n}")
                raise TreeError(violations)
            sorts = tuple(sorts[v] for v in range(1, n + 1))
        if len(sorts) != n:
            violations.append(f"sorts has {len(sorts)} entries, expected {n}")
    if violations:
        raise TreeError(violations)
    return Tree(n, tuple(s), L, None if sorts is None else tuple(sorts))


def root_blocks(t: Tree) -> list[tuple[int, int]]:
    """Ranges (offset, size) of the root's successor subtrees, left to right."""
    return [(k - t.sizes[k], t.sizes[k]) for k in t.kids[t.n]]


def subtree_at(t: Tree, offset: int, size: int) -> Tree:
    """Extract the subtree occupying vertices offset+1 .. offset+size."""
    s = tuple(t.s[offset + j - 1] - offset for j in range(1, size))
    L = frozenset(x - offset for x in t.L if offset < x <= offset + size)
    sorts = None if t.sorts is None else t.sorts[offset : offset + size]
    return Tree(size, s, L, sorts)


def successors(t: Tree) -> list[Tree]:
    """The root's subtrees, left to right; error when the root is a leaf."""
    if t.n in t.L:
        raise TreeError(["root is a leaf; it has no successor decomposition"])
    return [subtree_at(t, off, size) for off, size in root_blocks(t)]


def assemble(subtrees: list[Tree], root_sort: str | None = None) -> Tree:
    """Inverse of successors: put the given subtrees under a fresh root."""
    n = 1 + sum(st.n for st in subtrees)
    s: list[int] = []
    L: set[int] = set()
    sorts: list[str] | None = [] if (root_sort is not None) else None
    off = 0
    for st in subtrees:
        for j in range(1, st.n):
            s.append(st.s[j - 1] + off)
        s.append(n)
        L.update(x + off for x in st.L)
        if sorts is not None:
            if st.sorts is None:
                raise TreeError(["cannot mix sorted and unsorted subtrees"])
            sorts.extend(st.sorts)
        off += st.n
    if sorts is not None:
        sorts.append(root_sort)  # type: ignore[arg-type]
    return Tree(n, tuple(s), frozenset(L), None if sorts is None else tuple(sorts))


def permute_successors(t: Tree, perm: tuple[int, ...]) -> tuple[Tree, tuple[int, ...]]:
    """Reorder the root's subtrees; perm[i] is the old position placed at i.

    Returns the rebuilt tree and the vertex map sigma (old -> new), which
    is an intertwiner witnessing the equivalence.
    """
    blocks = root_blocks(t)
    if t.n in t.L:
        raise TreeError(["root is a leaf"])
    if sorted(perm) != list(range(len(blocks))):
        raise TreeError([f"permutation {perm} does not match valence {len(blocks)}"])
    subs = [subtree_at(t, off, size) for off, size in blocks]
    out = assemble([subs[q] for q in perm], t.sort_of(t.n))
    new_off = [0] * len(blocks)
    acc = 0
    for i, q in enumerate(perm):
        new_off[q] = acc
        acc += blocks[q][1]
    sigma = [0] * t.n
    for q, (off, size) in enumerate(blocks):
        for j in range(1, size + 1):
            sigma[off + j - 1] = new_off[q] + j
    sigma[t.n - 1] = t.n
    return out, tuple(sigma)


def is_intertwiner(t1: Tree, t2: Tree, sigma: tuple[int, ...]) -> bool:
    if t1.n != t2.n or sorted(sigma) != list(range(1, t1.n + 1)):
        return False
    if sigma[t1.n - 1] != t1.n:
        return False  # the root has no successor entry, so it must be fixed
    if {sigma[x - 1] for x in t1.L} != set(t2.L):
        return False
    for x in range(1, t1.n):
        if t2.s[sigma[x - 1] - 1] != sigma[t1.s[x - 1] - 1]:
            return False
    if (t1.sorts is None) != (t2.sorts is None):
        return False
    if t1.sorts is not None:
        for v in range(1, t1.n + 1):
            if t2.sorts[sigma[v - 1] - 1] != t1.sorts[v - 1]:
                return False
    return True


@cache
def encode(t: Tree) -> tuple:
    """Order-insensitive recursive encoding; equal on a ~-class's canonical form.

    Leaves sort before internal vertices, so e.g. a leaf child precedes a
    0-ary labeled child.  Memoized per tree value.
    """
    srt = t.sort_of(t.n) or ""
    if t.n in t.L:
        return (0, srt)
    return (1, srt, tuple(sorted(encode(st) for st in successors(t))))


@cache
def canonical_form(t: Tree) -> tuple[Tree, tuple[int, ...]]:
    """Canonical representative of the ~-class plus an intertwiner to it.

    Successor subtrees are recursively canonicalized and stably sorted by
    encoding, so canonical trees map to themselves by the identity.  The
    result is memoized per tree value for the life of the process; trees
    and intertwiners are immutable, so every caller may share it.
    """
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


def find_intertwiner(t1: Tree, t2: Tree) -> tuple[int, ...] | None:
    """An intertwiner t1 -> t2, or None; recursive matching, no brute force."""
    if t1.n != t2.n:
        return None
    c1, s1 = canonical_form(t1)
    c2, s2 = canonical_form(t2)
    if c1 != c2:
        return None
    # t1 --s1--> canonical <--s2-- t2, so compose s1 with the inverse of s2
    inv2 = [0] * t2.n
    for v in range(1, t2.n + 1):
        inv2[s2[v - 1] - 1] = v
    return tuple(inv2[s1[v - 1] - 1] for v in range(1, t1.n + 1))


def edge_contract(t: Tree, j: int) -> ContractionWitness:
    """Contract the parent edge of non-leaf, non-root vertex j.

    j is merged into its parent s(j); in the result the merged vertex sits
    at index s(j)-1 because the indices above j all shift down by one.
    """
    if not (1 <= j <= t.n - 1):
        raise TreeError([f"edge contraction needs 1 <= j <= {t.n - 1}, got {j}"])
    if j in t.L:
        raise TreeError([f"edge contraction at a leaf ({j}) is undefined"])
    sj = t.s[j - 1]
    tau = tuple(k if k < j else k + 1 for k in range(1, t.n))
    rho = tuple(k if k < j else (sj - 1 if k == j else k - 1) for k in range(1, t.n + 1))
    s_new = []
    for k in range(1, t.n - 1):
        y = t.s[tau[k - 1] - 1]
        if y == j:
            y = sj
        s_new.append(y - 1 if y > j else y)
    L_new = frozenset(x if x < j else x - 1 for x in t.L)
    sorts_new = None if t.sorts is None else tuple(t.sorts[tau[k - 1] - 1] for k in range(1, t.n))
    result = validate(t.n - 1, tuple(s_new), L_new, sorts_new)
    return ContractionWitness(result, tau, rho)


def leaf_contract(t: Tree, i: int, j: int) -> ContractionWitness:
    """Collapse vertex j together with its all-leaf children i..j-1 to a leaf.

    i = j is the 0-ary case (childless non-leaf becomes a leaf); j = n only
    happens for the full corona, collapsing everything to (1, (), {1}).
    """
    violations = []
    if not (1 <= i <= j <= t.n):
        violations.append(f"need 1 <= i <= j <= {t.n}, got ({i},{j})")
        raise TreeError(violations)
    if j in t.L:
        violations.append(f"vertex {j} is a leaf")
    kids = set(t.kids[j])
    corona = set(range(i, j))
    if kids != corona:
        violations.append(f"children of {j} are {sorted(kids)}, not {sorted(corona)}")
    elif not corona <= t.L:
        violations.append(f"children of {j} are not all leaves: {sorted(corona - t.L)}")
    if violations:
        raise TreeError(violations)
    drop = j - i
    n_new = t.n - drop
    tau = tuple(k if k < i else k + drop for k in range(1, n_new + 1))
    rho = tuple(k if k < i else (i if k <= j else k - drop) for k in range(1, t.n + 1))
    s_new = []
    for k in range(1, n_new):
        y = t.s[tau[k - 1] - 1]
        s_new.append(y if y < i else y - drop)
    L_new = frozenset(x if x < i else x - drop for x in t.L if not (i <= x < j)) | {i}
    sorts_new = None if t.sorts is None else tuple(t.sorts[tau[k - 1] - 1] for k in range(1, n_new + 1))
    result = validate(n_new, tuple(s_new), L_new, sorts_new)
    return ContractionWitness(result, tau, rho)


def graft(t: Tree) -> Tree:
    """Attach a new root below the old one; leaves are preserved."""
    s = t.s + (t.n + 1,)
    sorts = None if t.sorts is None else t.sorts + (t.sorts[t.n - 1],)
    return Tree(t.n + 1, s, t.L, sorts)


def child_index(t: Tree, q: int) -> int:
    """1-based position of q among its parent's children."""
    return t.kids[t.s[q - 1]].index(q) + 1


@cache
def _grown(n: int, canonical: bool, sorts: tuple[str, ...] | None) -> tuple[Tree, ...]:
    """Every tree on n vertices with a root of each sort; with canonical,
    every canonical one.

    A tree on n > 1 vertices is its root's first subtree, on k vertices, in
    front of a tree on n - k vertices whose non-leaf root holds the rest.
    Canonical trees have canonical, encode-nondecreasing subtrees, and
    equal-encoding canonical subtrees are equal, so each canonical tree
    grows once from canonical parts and none is filtered.
    """
    if n == 1:
        return tuple(Tree(1, (), L, None if srt is None else (srt,))
                     for srt in sorts or (None,)
                     for L in (frozenset({1}), frozenset()))
    out: list[Tree] = []
    for k in range(1, n):
        for first in _grown(k, canonical, sorts):
            for rest in _grown(n - k, canonical, sorts):
                if rest.n in rest.L:
                    continue  # a leaf root holds no subtrees
                # rest is canonical: encode(rest)[2][0] encodes its first subtree
                if canonical and rest.n > 1 and encode(first) > encode(rest)[2][0]:
                    continue
                out.append(Tree(
                    n, first.s + (n,) + tuple(p + k for p in rest.s),
                    first.L.union(x + k for x in rest.L),
                    None if sorts is None else first.sorts + rest.sorts))
    return tuple(out)


def enumerate_trees(
    n: int,
    up_to_equiv: bool = False,
    sorts: tuple[str, ...] | None = None,
    cap: int = ENUMERATION_CAP,
) -> list[Tree]:
    """All trees on n vertices; optionally canonical representatives only.

    With a sort set, every assignment of sorts to vertices is produced;
    admissibility against any particular operad is the caller's business.
    """
    if n < 1:
        raise TreeError([f"vertex count {n} must be positive"])
    if n > cap:
        raise TreeError([f"enumeration cap exceeded: {n} > {cap}"])
    if sorts is None or up_to_equiv:
        return list(_grown(n, up_to_equiv, None if sorts is None else tuple(sorts)))
    return [Tree(t.n, t.s, t.L, assignment) for t in _grown(n, False, None)
            for assignment in product(sorts, repeat=n)]
