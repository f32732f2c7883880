"""Reference bar bases, built by normalizing every label combination.

``enumerate_basis`` is ``BarComplex.enumerate_basis`` as ``kzbar.bar``
first wrote it: the degree window prunes tree shapes by their non-leaf
count and filters each label combination by its degree before it is
normalized, with no memo.  Canonicity is decided by the oracle's
unmemoized canonical form.  The tests compare it with the route that
enumerates the whole basis once and filters it by degree.

``full_basis`` is the whole basis the way ``BarComplex._full_basis``
built it before it generated only sibling-sorted labelings: every label
combination of every canonical tree is normalized and the set of results
is kept.

Both take their trees from ``tree_oracle``'s search-then-filter
enumeration and prune shapes by the operad's largest arity, so neither
goes through ``kzbar.trees.enumerate_trees`` or ``_full_basis``'s shape
rule.
"""

from __future__ import annotations

from itertools import product as iproduct

from kzbar.bar import _key_order
from kzbar.trees import Tree

from tree_oracle import all_trees, canonical_form, enumerate_trees


def _max_arity(B) -> int:
    return max((len(ins) for ins, _ in B.operad.components), default=0)


def enumerate_basis(B, n_max: int, deg_lo: int | None = None,
                    deg_hi: int | None = None) -> list:
    sorts = B.operad.sorts if len(B.operad.sorts) > 1 else None
    cap_val = _max_arity(B)
    min_label = B._min_label_degree()
    seen: set = set()
    for n in range(1, n_max + 1):
        for t0 in all_trees(n):
            nl = t0.non_leaves()
            if any(t0.valence(v) > cap_val for v in nl):
                continue
            if deg_hi is not None and min_label >= 0 and len(nl) > deg_hi:
                continue
            if sorts is None:
                cands = [t0] if canonical_form(t0)[0] == t0 else []
            else:
                cands = [
                    st
                    for assignment in iproduct(sorts, repeat=n)
                    for st in (Tree(t0.n, t0.s, t0.L, assignment),)
                    if canonical_form(st)[0] == st
                ]
            for t in cands:
                pools = _pools(B, t)
                if pools is None:
                    continue
                for combo in iproduct(*pools):
                    deg = B.degree_of(t, combo)
                    if deg_lo is not None and deg < deg_lo:
                        continue
                    if deg_hi is not None and deg > deg_hi:
                        continue
                    for key in B.basis_vector(t, combo):
                        seen.add(key)
    return sorted(seen, key=_key_order)


def full_basis(B, n_max: int) -> list:
    sorts = B.operad.sorts if len(B.operad.sorts) > 1 else None
    cap_val = _max_arity(B)
    seen: set = set()
    for n in range(1, n_max + 1):
        for t in enumerate_trees(n, True, sorts):
            if any(t.valence(v) > cap_val for v in t.non_leaves()):
                continue
            pools = _pools(B, t)
            if pools is None:
                continue
            for combo in iproduct(*pools):
                for key in B.basis_vector(t, combo):
                    seen.add(key)
    return sorted(seen, key=_key_order)


def _pools(B, t) -> list | None:
    """Each vertex's labels in str order, or None if one has none."""
    pools = []
    for v in range(1, t.n + 1):
        if t.is_leaf(v):
            comp = B.algebra.carrier.get(B._sort_of(t, v))
        else:
            comp = B.operad.component(B._component_sig(t, v))
        if comp is None or not comp.degrees:
            return None
        pools.append(sorted(comp.degrees, key=str))
    return pools
