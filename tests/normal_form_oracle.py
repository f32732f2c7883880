"""The bar normal form computed the direct way, vertex by vertex.

This is the normal form ``BarComplex`` used before it read per-tree
plans: carry the labels and the word through the intertwiner to the
canonical tree, then, at every vertex bottom-up, sort the children by
(shape encoding, labeled encoding) with one full transport, and move the
vertex label to the least of its orbit under swaps of equal labeled
siblings.  Each swap is signed by renormalizing the whole moved word
with ``relabel``.  Sorts, signatures and degrees are read off the tree
here, never from the bar complex's plans; only the operad's monomial
action and the orbit walk are shared; their raw coefficients are boxed
here, and the coefficient returned is a Scalar.
"""

from __future__ import annotations

from kzbar.bar import BarError
from kzbar.signs import SignWord, relabel, word
from kzbar.trees import canonical_form


def _sort_of(t, v):
    return t.sort_of(v) if t.sorts is not None else "*"


def _sig(t, v):
    return tuple(_sort_of(t, c) for c in t.kids[v]), _sort_of(t, v)


def _word(B, t, labels):
    fs = []
    for v in range(1, t.n + 1):
        if t.is_leaf(v):
            deg = B.algebra.carrier[_sort_of(t, v)].degrees[labels[v - 1]]
        else:
            deg = B.operad.degree_of(_sig(t, v), labels[v - 1])
        if deg % 2:
            fs.append(v)
    return word(tuple(t.non_leaves()), fs)


def _transport(B, t_src, t_dst, sigma, labels, w, coeff):
    """Carry (labels, word, coeff) through an intertwiner."""
    new_labels = [None] * t_dst.n
    for v in range(1, t_src.n + 1):
        lab = labels[v - 1]
        tv = sigma[v - 1]
        if t_src.is_leaf(v):
            new_labels[tv - 1] = lab
            continue
        cs = t_src.kids[v]
        images = [sigma[c - 1] for c in cs]
        order = sorted(range(len(cs)), key=lambda i: images[i])
        pi = [0] * len(cs)
        for new_pos, old_pos in enumerate(order):
            pi[old_pos] = new_pos + 1
        if pi == list(range(1, len(cs) + 1)):
            new_labels[tv - 1] = lab
            continue
        nm, cf = B._monomial_perm(_sig(t_src, v), tuple(pi), lab)
        coeff = coeff * B.field.scalar(cf)
        new_labels[tv - 1] = nm
    w2 = relabel(w, lambda k: sigma[k - 1], target=t_dst)
    return tuple(new_labels), w2, coeff


def _labeled_enc(t, labels, v):
    srt = _sort_of(t, v)
    if t.is_leaf(v):
        return (0, srt, str(labels[v - 1]))
    kids = tuple(_labeled_enc(t, labels, c) for c in t.kids[v])
    return (1, srt, str(labels[v - 1]), kids)


def _shape_enc(t, v):
    if t.is_leaf(v):
        return (0, _sort_of(t, v))
    return (1, _sort_of(t, v), tuple(_shape_enc(t, c) for c in t.kids[v]))


def _block_perm_at(t, v, order):
    """The self-intertwiner moving v's child subtrees into the given
    order; order[i] names the old child position placed i-th."""
    blocks = [(c - t.sizes[c] + 1, c) for c in t.kids[v]]
    sigma = list(range(1, t.n + 1))
    new_lo = blocks[0][0]
    for pos in order:
        lo, hi = blocks[pos]
        width = hi - lo + 1
        for off in range(width):
            sigma[lo - 1 + off] = new_lo + off
        new_lo += width
    return tuple(sigma)


def normal_form(B, t, labels, w: SignWord):
    """(canonical key, coefficient) of the term (t, w, labels, 1) of the
    bar complex B, or () when it is zero."""
    coeff = B.field.one
    t_c, sigma1 = canonical_form(t)
    if t_c != t or sigma1 != tuple(range(1, t.n + 1)):
        labels, w, coeff = _transport(B, t, t_c, sigma1, labels, w, coeff)
        t = t_c
        if w.sign == 0:
            return ()

    for v in range(1, t.n + 1):
        if t.is_leaf(v):
            continue
        cs = t.kids[v]
        if len(cs) < 2:
            continue
        keys = [(_shape_enc(t, c), _labeled_enc(t, labels, c)) for c in cs]
        order = sorted(range(len(cs)), key=lambda i: keys[i])
        if order != list(range(len(cs))):
            sigma = _block_perm_at(t, v, order)
            labels, w, coeff = _transport(B, t, t, sigma, labels, w, coeff)
            if w.sign == 0:
                return ()

        # minimize this vertex's label over swaps of equal siblings
        encs = [_labeled_enc(t, labels, c) for c in cs]
        gens = []
        for i in range(len(cs) - 1):
            if encs[i] == encs[i + 1]:
                pi = list(range(1, len(cs) + 1))
                pi[i], pi[i + 1] = pi[i + 1], pi[i]
                swap = list(range(len(cs)))
                swap[i], swap[i + 1] = swap[i + 1], swap[i]
                sigma_g = _block_perm_at(t, v, swap)
                moved = relabel(w, lambda k: sigma_g[k - 1], target=t)
                gens.append((tuple(pi), moved.sign * w.sign))
        if not gens:
            continue
        best = B._orbit_min(_sig(t, v), tuple(gens), labels[v - 1])
        if not best:
            return ()
        best_name, best_sign = best
        if best_name != labels[v - 1]:
            lab2 = list(labels)
            lab2[v - 1] = best_name
            labels = tuple(lab2)
            coeff = coeff * B.field.scalar(best_sign)

    coeff = coeff.scaled(w.sign)
    base = _word(B, t, labels)
    if base.es != w.es or base.fs != w.fs:
        raise BarError(f"normalized word {w} disagrees with parities on {t}")
    if coeff.is_zero():
        return ()
    return (t, labels), coeff
