"""Reference join of the bar algebra action, with a hand-built tree.

This is ``kzbar.dstructures._action_basis`` as ``kzbar.bar`` first wrote it:
the joined tree is built vertex by vertex from parent, leaf and sort
arrays and checked by ``validate``, where the library assembles the
factors' successor subtrees under a new root.  The tests compare the
two on single-sorted and two-sorted factors.
"""

from __future__ import annotations

from kzbar.linalg import vec_box, vec_iaxpy
from kzbar.signs import multiply, partial_e, relabel, word
from kzbar.trees import validate


def action_basis(B, keys: list, c_sig, c_name) -> dict:
    n_new = sum(t.n for t, _ in keys) - len(keys) + 1
    multi = len(B.operad.sorts) > 1
    s_new = [0] * max(n_new - 1, 0)
    sorts_new = [None] * n_new if multi else None
    big_L = set()
    maps = []
    root_labels = []
    offset = 0
    for t, labels in keys:
        mapping = {}
        for v in range(1, t.n):
            mapping[v] = v + offset
            par = t.parent(v)
            s_new[v + offset - 1] = par + offset if par != t.n else n_new
            if v in t.L:
                big_L.add(v + offset)
            if multi:
                sorts_new[v + offset - 1] = t.sort_of(v)
        mapping[t.n] = n_new
        maps.append(mapping)
        root_labels.append(B.operad.basis_element(
            B._component_sig(t, t.n), labels[t.n - 1]))
        offset += t.n - 1
    if multi:
        sorts_new[n_new - 1] = c_sig[1]
    t_new = validate(n_new, tuple(s_new), frozenset(big_L),
                     tuple(sorts_new) if multi else None)

    merged = B.operad.gamma(root_labels, B.operad.basis_element(c_sig, c_name))

    c_odd = B.operad.degree_of(c_sig, c_name) % 2 == 1
    w_acc = word((n_new,), (n_new,) if c_odd else ())
    for (t, labels), mapping in zip(keys, maps):
        wq = partial_e(t.n, B.basis_word(t, labels))
        wq = relabel(wq, lambda k: mapping[k])
        w_acc = multiply(w_acc, wq)
        if w_acc.sign == 0:
            return {}

    lab2 = [None] * n_new
    for (t, labels), mapping in zip(keys, maps):
        for v in range(1, t.n):
            lab2[mapping[v] - 1] = labels[v - 1]
    out: dict = {}
    for nm, cf in sorted(merged.vec.items(), key=lambda kv: str(kv[0])):
        lab2[n_new - 1] = nm
        vec_iaxpy(out, cf, vec_box(B.normalize_term(t_new, w_acc, tuple(lab2),
                                                    B.field.one.val), B.field))
    return out
