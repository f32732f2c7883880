"""The augmented bar construction on labeled trees.

An element is spanned by (canonical tree, labels): leaves carry carrier
basis names, non-leaf vertices carry operad basis names for the
component matching their children.  The attached sign word is the full
ascending e-product over non-leaf vertices (root included) times f_i for
every odd-parity vertex; a basis term stores it with sign +1, and every
operation pushes its signs through the word calculus, so Koszul
reordering costs never need separate bookkeeping.

The differential has three summand families: contract an inner edge and
compose the two operad labels, contract a fully-leafed vertex into a new
leaf through the algebra action, or apply the internal differential at
one vertex.  The homotopy grafts a unit-labeled root on top.
``certificate_faults`` checks d.d = 0 and dh + hd = Id on every key it
is given, and ``kz bar`` runs it on the whole window.

Every raw term is brought to its canonical labeled representative
through a plan built once per tree: the tree's sorts, signatures and
degree tables, its intertwiner to the canonical tree, and the canonical
tree's runs of equal-shape siblings.  Moving a term is then an index
move of its labels, the operad's monomial action at the vertices whose
child order changes, and the inversion parity of its e's and its f's.
The plan of a basis tree also holds its differential: per contraction
the index move of the labels, the slot and the unit label ids that
compose through the operad's table, per vertex its unboxed internal d,
the contracted words per word, and the grafted tree of the homotopy.

Inside, a basis key is an int id and a coefficient a raw value, a
residue mod p or a Fraction, as the operad and algebra tables hold it.
Each bar complex keeps one key table: a tree's plan maps labels to ids
in first-seen order, and per id the key, its plan and its word.  Plans
are found by the tree's value tuple, and a differential plan points
straight at the plans of its contracted and grafted trees, so the d, h
and normal-form memos, and every sum that fills them, hash no tree.
The basis is generated from the labelings whose runs of equal-shape
siblings are nondecreasing, and one with equal labeled siblings is kept
when each such vertex's label is the least of its orbit, so the key
table holds the basis and what d, h and the normal form reach: a
rejected labeling gets no id and no normal form.
The public methods take (tree, labels) keys and return raw values over
them: ``differential_key``, ``homotopy_key``, ``normalize_term`` and
``mu_key``.  The quotient and the evaluation map hand their columns raw
to ``ChainComplex.from_raw`` and ``ChainMap.from_raw``.  Scalars are
built only for the witnesses of ``certificate_faults``.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations_with_replacement, groupby
from itertools import product as iproduct
from operator import itemgetter

# The word calculus and canonical_form are read through their modules
# at call time: the benchmark trace (perfbench/kztrace.py) replaces them
# there, and a name bound here while this module was first imported
# under a trace would outlive the trace.
from kzbar import KzbarError, signs, trees
from kzbar.algebras import Algebra
from kzbar.complexes import ChainComplex, ChainMap, direct_sum
from kzbar.fields import Scalar
from kzbar.linalg import raw_iaxpy
from kzbar.signs import SignWord, block_swap_sign, inversion_parity
from kzbar.trees import (
    Tree,
    child_index,
    edge_contract,
    encode,
    enumerate_trees,
    graft,
    leaf_contract,
)


class BarError(KzbarError):
    pass


BarKey = tuple  # (Tree, labels tuple indexed by vertex)
BarVec = dict  # BarKey -> raw value at the edge, key id -> raw value inside


def _is_bare(key: BarKey) -> bool:
    t, _ = key
    return t.n == 1 and 1 in t.L


@cache
def _tree_order(t: Tree) -> tuple:
    return (t.n, str(encode(t)), str(t.s), str(sorted(t.L)))


def _key_sort(key: BarKey):
    """The sort key of bar keys; its tree part is memoized per tree."""
    t, labels = key
    return _tree_order(t) + (str(labels),)


# memoized per key value like ``encode``, for the sums of the quotient's
# algebra action; the basis sort reads each key's order once, so it calls
# _key_sort
_key_order = cache(_key_sort)


def _child_perm(order) -> tuple:
    """The child permutation pi that places child order[i] i-th:
    pi[order[i]] = i + 1."""
    pi = [0] * len(order)
    for new, old in enumerate(order):
        pi[old] = new + 1
    return tuple(pi)


class _Plan:
    """Everything about one tree that its labels do not change, built
    once per tree by ``BarComplex._plan``.

    Per vertex, indexed by vertex - 1: its sort, its component
    signature, the degree table of its labels ({} when the component is
    missing) and its shape encoding.  ``canon`` is the plan of the
    canonical tree.  On any other tree ``sigma`` is the intertwiner to
    it, and ``moved`` lists (vertex index, signature, pi) for the
    vertices whose child order sigma changes.  On the canonical tree
    ``sigma`` is None and ``runs`` lists, bottom-up, the vertices with
    two equal-shape siblings: (vertex index, signature, children,
    swaps).  Each child is (run number, first vertex index of its
    subtree, subtree size, getter of the subtree's labels in preorder),
    and swaps[i] is the pi exchanging children i and i + 1.

    ``ids`` maps the labels of each key interned on the tree to its id.

    The differential part is filled on first use by
    ``BarComplex._d_plan``, and ``edges`` is None until then.  ``edges``
    lists, for the edge above each non-root vertex q, (parent index,
    its label ids, q's index, q's label ids, the unit label ids before
    and after q's slot, the getter of the contracted tree's labels, the
    slot of the composite there, the contracted tree's plan).
    ``leaves`` lists, for each fully-leafed vertex j, (j's index, its
    label ids, the getter of its children's labels, the getter of the
    contracted tree's labels, the spot of the new leaf, the contracted
    tree's plan).  ``cuts`` lists, edges first, (the vertex whose e the
    contraction removes, the collapse map rho, the contracted tree).
    ``dverts`` lists (vertex index, unboxed internal d) for the vertices
    whose component has one.  ``words`` maps the f's of a key's word to
    its contracted words, and ``grafted`` is the plan of the homotopy's
    tree with its unit label, or None until first read.
    """

    __slots__ = ("tree", "sorts", "sigs", "degrees", "shapes", "non_leaves",
                 "canon", "sigma", "moved", "runs", "ids",
                 "edges", "leaves", "cuts", "dverts", "words", "grafted")


def _by_str(pairs) -> list:
    """(name, value) pairs in str order of the names, the order in which
    the differential places the terms of an image."""
    pairs = list(pairs)
    if len(pairs) > 1:
        pairs.sort(key=lambda kv: str(kv[0]))
    return pairs


def _taker(idx) -> callable:
    """A getter of the entries of a sequence at the given indices, always
    as a tuple."""
    idx = tuple(idx)
    if len(idx) == 1:
        (i,) = idx
        return lambda xs: (xs[i],)
    return itemgetter(*idx) if idx else lambda xs: ()


class _Strs(dict):
    """label -> str(label), filled on first read."""

    def __missing__(self, label) -> str:
        s = self[label] = str(label)
        return s


class BarComplex:
    """The augmented bar construction of an algebra over its operad."""

    def __init__(self, algebra: Algebra, name: str = "bar") -> None:
        self.algebra = algebra
        self.operad = algebra.operad
        self.field = algebra.field
        self.name = name
        self._one = self.field.one.val  # raw; a Fraction over Q
        self._keys: list[BarKey] = []  # key id -> (tree, labels)
        self._recs: list[tuple] = []  # key id -> (plan, labels, word)
        self._d_memo: dict = {}  # key id -> {key id: raw}
        self._h_memo: dict = {}  # key id -> {key id: raw}
        self._d_views: dict = {}  # key id -> {key: raw}, read by key
        self._h_views: dict = {}  # key id -> {key: raw}, read by key
        self._normal_memo: dict = {}  # (plan, labels, es, fs) -> (key id, raw) or ()
        self._orbit_memo: dict = {}  # (sig, gens, label) -> (name, raw) or ()
        self._plans: dict[tuple, _Plan] = {}  # (n, s, L, sorts) -> plan
        self._ids_memo: dict = {}  # sig -> {label name: label id}
        self._internal_d: dict = {}  # component -> {label: ((name, raw), ...)}
        self._basis_memo: dict[int, list[BarKey]] = {}
        self._plus_words: dict = {}  # (es, fs) -> SignWord(1, es, fs)
        self._strs = _Strs()

    # ----------------------------------------------------------- structure

    def _plan(self, t: Tree) -> _Plan:
        """The plan of t, found by its value tuple: hashing that tuple
        calls no Python-level hash."""
        value = (t.n, t.s, t.L, t.sorts)
        p = self._plans.get(value)
        if p is None:
            p = self._plans[value] = self._build_plan(t)
        return p

    def _build_plan(self, t: Tree) -> _Plan:
        p = _Plan()
        p.tree, n = t, t.n
        p.sorts = sorts = t.sorts or ("*",) * n
        sigs, degrees, shapes = [], [], []
        for v in range(1, n + 1):
            kids, srt = t.kids[v], sorts[v - 1]
            sigs.append((tuple(sorts[c - 1] for c in kids), srt))
            if v in t.L:
                comp = self.algebra.carrier.get(srt)
                shapes.append((0, srt))
            else:
                comp = self.operad.components.get(sigs[-1])
                shapes.append((1, srt, tuple(shapes[c - 1] for c in kids)))
            degrees.append(comp.degrees if comp is not None else {})
        p.sigs, p.degrees, p.shapes = tuple(sigs), tuple(degrees), tuple(shapes)
        p.non_leaves = tuple(t.non_leaves())
        p.moved, p.runs, p.ids = [], [], {}
        p.edges = p.grafted = None
        t_c, p.sigma = trees.canonical_form(t)
        if t_c != t or p.sigma != tuple(range(1, n + 1)):
            p.canon = self._plan(t_c)
            for v in p.non_leaves:
                images = [p.sigma[c - 1] for c in t.kids[v]]
                if images != sorted(images):
                    order = sorted(range(len(images)), key=images.__getitem__)
                    p.moved.append((v - 1, sigs[v - 1], _child_perm(order)))
            return p
        p.canon, p.sigma = p, None
        # equal shapes order as their labeled encodings do once each
        # subtree reads as its label strs in preorder
        pre = []
        for v in range(1, n + 1):
            pre.append(sum((pre[c - 1] for c in t.kids[v]), (v - 1,)))
        for v in p.non_leaves:
            kids = t.kids[v]
            runs, run = [], 0
            for i, c in enumerate(kids):
                run += i > 0 and shapes[c - 1] != shapes[kids[i - 1] - 1]
                runs.append(run)
            if len(set(runs)) == len(kids):
                continue
            swaps = []
            for i in range(len(kids) - 1):
                order = list(range(len(kids)))
                order[i], order[i + 1] = i + 1, i
                swaps.append(_child_perm(order))
            p.runs.append((v - 1, sigs[v - 1], tuple(
                (run, c - t.sizes[c], t.sizes[c], itemgetter(*pre[c - 1]))
                for run, c in zip(runs, kids)), swaps))
        return p

    def _sort_of(self, t: Tree, v: int) -> str:
        return self._plan(t).sorts[v - 1]

    def _component_sig(self, t: Tree, v: int):
        return self._plan(t).sigs[v - 1]

    def label_degree(self, t: Tree, v: int, label) -> int:
        return self._plan(t).degrees[v - 1][label]

    def degree_of(self, t: Tree, labels: tuple) -> int:
        p = self._plan(t)
        return len(p.non_leaves) + sum(
            table[lab] for table, lab in zip(p.degrees, labels))

    def basis_word(self, t: Tree, labels: tuple) -> SignWord:
        """The sign word of a key, memoized per key."""
        return self._recs[self._key_id((t, labels))][2]

    def _key_id(self, key: BarKey) -> int:
        return self._id_on(self._plan(key[0]), key[1])

    def _id_on(self, p: _Plan, labels: tuple) -> int:
        """The id of the key (p's tree, labels); a key seen first gets the
        next id, kept with its word."""
        kid = p.ids.get(labels)
        if kid is None:
            kid = p.ids[labels] = len(self._keys)
            self._keys.append((p.tree, labels))
            self._recs.append((p, labels, self._word_on(p, labels)))
        return kid

    def _word_on(self, p: _Plan, labels: tuple) -> SignWord:
        """The word of the key (p's tree, labels): e at each non-leaf, f at
        each vertex of odd label degree."""
        fs = tuple(v for v, table, lab in zip(range(1, p.tree.n + 1), p.degrees,
                                              labels) if table[lab] % 2)
        return self._plus_word(p.non_leaves, fs)

    def _plus_word(self, es: tuple, fs: tuple) -> SignWord:
        """The word of sign +1 on es and fs, built once and shared: a word
        is immutable, and few (es, fs) occur."""
        hit = self._plus_words.get((es, fs))
        if hit is None:
            hit = self._plus_words[(es, fs)] = SignWord(1, es, fs)
        return hit

    # ------------------------------------------------------------ normal form

    def _monomial_perm(self, sig, pi: tuple, name):
        """(image name, raw coefficient) of the operad's action of pi on
        the label name of component sig."""
        tgt_sig, vec = self.operad.perm_matrix(sig, pi)[name]
        del tgt_sig  # the destination vertex's children fix the signature
        if len(vec) != 1:
            raise BarError(
                "tree normalization needs a monomial symmetric action; "
                f"component {sig} acts non-monomially on {name!r}"
            )
        (nm, cf), = vec.items()
        return nm, cf.val

    def normalize_term(self, t: Tree, w: SignWord, labels: tuple, coeff) -> BarVec:
        """Transport to the canonical labeled representative.

        The result does not depend on how the raw term was produced; a
        term fixed by a label-preserving symmetry of sign -1 is zero.  It
        is linear in coeff and in the sign of w, so the normal form of the
        sign +1 term is memoized per (t, labels, es, fs).  Every call gets
        a fresh vector, and a failed parity check is never memoized, so it
        raises on every call.  coeff and the result are raw values.
        """
        if w.sign == 0 or not coeff:
            return {}
        hit = self._normal_hit(self._plan(t), labels, w.es, w.fs)
        if not hit:
            return {}
        kid, c0 = hit
        c = coeff * c0 if w.sign == 1 else -(coeff * c0)
        if self.field.p:
            c %= self.field.p
        return {self._keys[kid]: c}

    def _normal_hit(self, p: _Plan, labels: tuple, es: tuple, fs: tuple):
        """The memoized normal form of the sign +1 term (es, fs, labels) on
        p's tree, as (key id, raw coefficient) or ()."""
        memo_key = (p, labels, es, fs)
        hit = self._normal_memo.get(memo_key)
        if hit is None:
            hit = self._normal_memo[memo_key] = self._normal_form(
                p.tree, labels, self._plus_word(es, fs))
        return hit

    def _normal_form(self, t: Tree, labels: tuple, w: SignWord):
        """(canonical key id, raw coefficient) of the term (t, w, labels,
        1), or () when it is zero.

        Everything that depends on the tree alone is read off its plan.
        The labels move to the canonical tree by an index move, with the
        operad's monomial action at the vertices whose child order the
        intertwiner changes.  Then, bottom-up at each vertex with equal-
        shape siblings, the children are sorted by (run, labels in
        preorder), the action applies the child permutation at the
        vertex, and the vertex label moves to the least of its orbit
        under swaps of equal labeled siblings (``_tie_orbit``).  The word
        moves by the inversion parity of its e's and its f's, as
        ``relabel`` moves it, and each swap is signed by
        ``block_swap_sign``.  The coefficient is a product of raw action
        coefficients and word signs, reduced mod p once at the end.
        """
        p = self._plan(t)
        coeff = self._one
        if p.sigma is not None:
            labels, w, coeff = self._carry(p.sigma, p.moved, labels, w, coeff)
            p = p.canon
        if p.runs:
            labels = list(labels)
            strs = list(map(self._strs.__getitem__, labels))
        for vertex in p.runs:
            vi, sig, children, _ = vertex
            keys = [(run, get(strs)) for run, _, _, get in children]
            order = sorted(range(len(keys)), key=keys.__getitem__)
            if order != list(range(len(order))):
                sigma = list(range(1, t.n + 1))
                new_lo = children[0][1]
                for old in order:
                    _, lo, size, _ = children[old]
                    sigma[lo:lo + size] = range(new_lo + 1, new_lo + size + 1)
                    new_lo += size
                labels, w, coeff = self._carry(
                    sigma, ((vi, sig, _child_perm(order)),), labels, w, coeff)
                strs = list(map(self._strs.__getitem__, labels))
                keys = [keys[i] for i in order]
            best = self._tie_orbit(vertex, keys, w, labels[vi])
            if best == ():
                return ()
            if best and best[0] != labels[vi]:
                labels[vi], strs[vi] = best[0], self._strs[best[0]]
                coeff = coeff * best[1]
        labels = tuple(labels)
        if w.sign == -1:
            coeff = -coeff
        if self.field.p:
            coeff %= self.field.p
        kid = self._id_on(p, labels)
        base = self._recs[kid][2]
        if base.es != w.es or base.fs != w.fs:
            raise BarError(f"normalized word {w} disagrees with parities on {p.tree}")
        if not coeff:
            return ()
        return kid, coeff

    def _tie_orbit(self, vertex, keys: list, w: SignWord, label):
        """``_orbit_min`` of label, the label of the vertex (index, sig,
        children, swaps) of a run plan, under the swaps of its equal
        labeled siblings, whose sort keys are keys, with the word w; None
        when no two siblings are equal."""
        _, sig, children, swaps = vertex
        gens = tuple(
            (swap, block_swap_sign(w, a[1], b[1], b[1] + b[2]))
            for swap, a, b, ka, kb in zip(swaps, children, children[1:], keys, keys[1:])
            if ka == kb)
        return self._orbit_min(sig, gens, label) if gens else None

    def _carry(self, sigma, at, labels, w: SignWord, coeff):
        """Move (labels, w, raw coeff) along the vertex permutation sigma,
        with the operad's action on the label of each (vertex index,
        signature, pi) in at.  The moved word has sign +1: w's sign and
        the inversion parity of the moved e's and f's go into coeff."""
        moved = [None] * len(labels)
        for i, lab in enumerate(labels):
            moved[sigma[i] - 1] = lab
        for i, sig, pi in at:
            moved[sigma[i] - 1], cf = self._monomial_perm(sig, pi, labels[i])
            coeff = coeff * cf
        es = [sigma[k - 1] for k in w.es]
        fs = [sigma[k - 1] for k in w.fs]
        if inversion_parity(es) ^ inversion_parity(fs) ^ (w.sign == -1):
            coeff = -coeff
        es.sort()
        fs.sort()
        return moved, self._plus_word(tuple(es), tuple(fs)), coeff

    def _orbit_min(self, sig, gens: tuple, start):
        """The str-least label in the orbit of start under the swaps gens
        = ((pi, word sign), ...), with the raw coefficient carrying start
        to it, or () when the orbit reaches one label with both signs
        (torsion); memoized per (sig, gens, label).  One walk memoizes
        every label it saw: u with sign s_u from start goes to the least
        one with s_best * s_u^-1, and in a torsion orbit every label is
        zero."""
        hit = self._orbit_memo.get((sig, gens, start))
        if hit is not None:
            return hit
        P = self.field.p
        best_name = start
        seen = {start: self._one}
        frontier = [(start, self._one)]
        while frontier:
            cur, csgn = frontier.pop()
            for pi, ws in gens:
                nm, cf = self._monomial_perm(sig, pi, cur)
                nsgn = csgn * cf if ws == 1 else -(csgn * cf)
                if P:
                    nsgn %= P
                prev = seen.get(nm)
                if prev is None:
                    seen[nm] = nsgn
                    frontier.append((nm, nsgn))
                    if str(nm) < str(best_name):
                        best_name = nm
                elif prev != nsgn:
                    for u in seen:
                        self._orbit_memo[(sig, gens, u)] = ()
                    return ()
        best_sign = seen[best_name]
        for u, s_u in seen.items():
            c = best_sign * pow(s_u, -1, P) % P if P else best_sign / s_u
            self._orbit_memo[(sig, gens, u)] = (best_name, c)
        return self._orbit_memo[(sig, gens, start)]

    # ------------------------------------------------------------ operations

    def _label_ids(self, sig) -> dict:
        hit = self._ids_memo.get(sig)
        if hit is None:
            hit = self._ids_memo[sig] = {
                name: i for (s, name), i in self.operad._ids.items() if s == sig}
        return hit

    def _unboxed_d(self, comp) -> dict:
        """A component's internal d as {label: ((name, raw), ...)}, each
        image in str order of its names; unboxed once per component."""
        hit = self._internal_d.get(comp)
        if hit is None:
            raw = self.field.raw
            hit = self._internal_d[comp] = {
                lab: _by_str((nm, raw(c)) for nm, c in v.items())
                for lab, v in comp.d.items() if v}
        return hit

    def _named(self, raw: dict) -> list:
        """A raw vector over operad label ids as (name, raw) pairs in str
        order of the names."""
        labels = self.operad._labels
        return _by_str((labels[i][1], c) for i, c in raw.items())

    def _d_plan(self, p: _Plan) -> None:
        """Fill the differential part of p, once per tree: every edge and
        leaf contraction is computed here."""
        t, sigs, op = p.tree, p.sigs, self.operad
        edges, leaves, cuts, dverts = [], [], [], []
        for q in p.non_leaves:
            if q == t.n:
                continue
            parent, wit = t.parent(q), edge_contract(t, q)
            units = [op._label_id(*op.unit_label(s)) for s in sigs[parent - 1][0]]
            slot = child_index(t, q) - 1
            edges.append((parent - 1, self._label_ids(sigs[parent - 1]),
                          q - 1, self._label_ids(sigs[q - 1]),
                          tuple(units[:slot]), tuple(units[slot + 1:]),
                          _taker(k - 1 for k in wit.tau), wit.rho[q - 1] - 1,
                          self._plan(wit.result)))
            cuts.append((parent, wit.rho, wit.result))
        for j in p.non_leaves:
            kids = t.kids[j]
            if all(c in t.L for c in kids):
                wit = leaf_contract(t, j - len(kids), j)
                leaves.append((j - 1, self._label_ids(sigs[j - 1]),
                               _taker(c - 1 for c in kids),
                               _taker(k - 1 for k in wit.tau), j - len(kids) - 1,
                               self._plan(wit.result)))
                cuts.append((j, wit.rho, wit.result))
        for v in range(1, t.n + 1):
            comp = (self.algebra.carrier[sigs[v - 1][1]] if v in t.L
                    else op.components[sigs[v - 1]])
            table = self._unboxed_d(comp)
            if table:
                dverts.append((v - 1, table))
        p.leaves, p.cuts, p.dverts, p.words = leaves, cuts, dverts, {}
        p.edges = edges

    def _words(self, p: _Plan, w: SignWord) -> tuple:
        """The contracted words of a key with word w on p's tree, memoized
        per f's (the e's are the tree's non-leaves): (one per edge, one
        per leaf, one per internal d), in plan order; a zero word drops
        its summand."""
        hit = p.words.get(w.fs)
        if hit is None:
            cut = [signs.relabel(signs.partial_e(v, w),
                                 lambda k, rho=rho: rho[k - 1], target=result)
                   for v, rho, result in p.cuts]
            hit = p.words[w.fs] = (cut[:len(p.edges)], cut[len(p.edges):],
                                   [signs.left_mul_f(vi + 1, w) for vi, _ in p.dverts])
        return hit

    def _place(self, out: dict, p: _Plan, w: SignWord, labels, spot: int,
               items) -> None:
        """out += the normal form of each (name, raw coefficient) of items
        put at vertex spot + 1 of (p's tree, w, labels), times its
        coefficient, in the order of items, keyed by key id.  Entries that
        cancel are dropped, as ``vec_iaxpy`` drops them."""
        if w.sign == 0:
            return
        P, es, fs, neg = self.field.p, w.es, w.fs, w.sign == -1
        normal = self._normal_hit
        lab2 = list(labels)
        for nm, cf in items:
            lab2[spot] = nm
            hit = normal(p, tuple(lab2), es, fs)
            if not hit:
                continue
            key, c = hit
            c = -(cf * c) if neg else cf * c
            old = out.get(key)
            if old is not None:
                c += old
            if P:
                c %= P
            if c:
                out[key] = c
            else:
                out.pop(key, None)

    def differential_key(self, key: BarKey) -> dict:
        """d of one basis key as {key: raw}, memoized per key; callers
        only read it."""
        return self._view(self._d_views, self._d, key)

    def _view(self, views: dict, op, key: BarKey) -> dict:
        """op of key, over keys, memoized per key id in views."""
        kid = self._key_id(key)
        hit = views.get(kid)
        if hit is None:
            keys = self._keys
            hit = views[kid] = {keys[i]: c for i, c in op(kid).items()}
        return hit

    def _d(self, kid: int) -> dict:
        """d of one key id as {key id: raw}, memoized per id.  Its
        summands are read off the tree's plan: the operad's table composes
        each contracted edge, the algebra's table each contracted
        fully-leafed vertex, and each vertex's unboxed internal d; then
        the normal-form memo places each term."""
        hit = self._d_memo.get(kid)
        if hit is not None:
            return hit
        p, labels, w = self._recs[kid]
        if p.edges is None:
            self._d_plan(p)
        edge_words, leaf_words, d_words = self._words(p, w)
        op, theta, place = self.operad, self.algebra._theta_ids, self._place
        gamma, gamma_memo = op._gamma_ids, op._gamma_memo
        out: dict = {}

        # contract the edge above q, composing q into its parent's slot
        for (pi, y_ids, qi, x_ids, before, after, take, spot, result), dw in zip(
                p.edges, edge_words):
            if dw.sign:
                g = (y_ids[labels[pi]], before + (x_ids[labels[qi]],) + after)
                merged = (gamma_memo.get(g) or gamma(*g))[1]
                place(out, result, dw, take(labels), spot, self._named(merged))

        # contract a fully-leafed vertex into a new leaf via the action
        for (ji, c_ids, kids_of, take, spot, result), dw in zip(p.leaves, leaf_words):
            if dw.sign:
                acted = theta(c_ids[labels[ji]], kids_of(labels))
                place(out, result, dw, take(labels), spot, _by_str(acted.items()))

        # internal differential at one vertex
        for (vi, table), dw in zip(p.dverts, d_words):
            image = table.get(labels[vi])
            if image:
                place(out, p, dw, labels, vi, image)
        self._d_memo[kid] = out
        return out

    def _boxed(self, raw: dict) -> BarVec:
        """A vector over key ids as Scalars over keys, for the witnesses of
        ``certificate_faults``."""
        F, keys = self.field, self._keys
        return {keys[i]: Scalar(F, c) for i, c in raw.items()}

    def homotopy_key(self, key: BarKey) -> dict:
        """h of one basis key as {key: raw}, memoized per key; callers
        only read it."""
        return self._view(self._h_views, self._h, key)

    def _h(self, kid: int) -> dict:
        """h of one key id as {key id: raw}, memoized per id: the unit-
        labeled root grafted on, through the grafted tree's plan."""
        hit = self._h_memo.get(kid)
        if hit is None:
            p, labels, w = self._recs[kid]
            if p.grafted is None:
                p.grafted = (self._plan(graft(p.tree)),
                             self.operad.unit_names[p.sorts[p.tree.n - 1]])
            gp, unit = p.grafted
            term = self._normal_hit(gp, labels + (unit,), w.es + (gp.tree.n,), w.fs)
            hit = self._h_memo[kid] = {}
            if term:
                kid2, c = term
                # e of the new root, put in front, passes each e of w
                P = self.field.p
                hit[kid2] = (-c % P if P else -c) if len(w.es) % 2 else c
        return hit

    def certificate_faults(self, keys) -> tuple:
        """d.d and dh + hd - 1 on every key, summed on raw values over key
        ids.  Returns (first key whose d.d is not zero, first key whose
        dh + hd - 1 is not), each as (key, boxed value), or None where
        every key passes."""
        P, one = self.field.p, self._one
        d, h = self._d, self._h
        dd_fault = unit_fault = None
        for key in keys:
            kid = self._key_id(key)
            dd: dict = {}
            unit: dict = {}
            for k2, c in d(kid).items():
                raw_iaxpy(dd, c, d(k2), P)
                raw_iaxpy(unit, c, h(k2), P)
            for k2, c in h(kid).items():
                raw_iaxpy(unit, c, d(k2), P)
            raw_iaxpy(unit, -one, {kid: one}, P)
            if dd and dd_fault is None:
                dd_fault = key, self._boxed(dd)
            if unit and unit_fault is None:
                unit_fault = key, self._boxed(unit)
        return dd_fault, unit_fault

    # ------------------------------------------------------------- basis

    def _min_label_degree(self) -> int:
        """The least degree of any leaf or vertex label, or 0 if none is
        negative."""
        comps = [*self.algebra.carrier.values(), *self.operad.components.values()]
        return min([0, *(d for comp in comps for d in comp.degrees.values())])

    def enumerate_basis(self, n_max: int, deg_lo: int | None = None,
                        deg_hi: int | None = None) -> list[BarKey]:
        """All canonical labeled trees on at most n_max vertices, filtered
        to the (unshifted) degree window; deterministic order.

        The whole basis is built once per n_max and memoized; a window
        filters it, since normalizing a term only transports labels
        through monomial permutations, which keep the degree.
        """
        keys = self._basis_memo.get(n_max)
        if keys is None:
            keys = self._basis_memo[n_max] = self._full_basis(n_max)
        if deg_lo is None and deg_hi is None:
            return list(keys)
        lo = float("-inf") if deg_lo is None else deg_lo
        hi = float("inf") if deg_hi is None else deg_hi
        return [k for k in keys if lo <= self.degree_of(*k) <= hi]

    def _full_basis(self, n_max: int) -> list[BarKey]:
        """Every canonical labeled tree on at most n_max vertices.

        Normalizing sorts each run of equal-shape siblings by their
        labeled encodings, then moves the parent's label to the least of
        its orbit under swaps of equal labeled siblings.  So only the
        labelings whose sibling runs are nondecreasing are generated.  One
        without equal labeled siblings is its own normal form; any other
        is kept only if ``_canonical`` finds that normalizing leaves it in
        place, which interns nothing and fills no normal-form memo.  Only
        kept keys get an id.  A shape gets a plan only if each vertex's
        signature is a component of the operad and each leaf's sort a
        carrier sort, so that every vertex has labels.
        """
        sorts = self.operad.sorts if len(self.operad.sorts) > 1 else None
        leaves = {srt for srt, comp in self.algebra.carrier.items() if comp.degrees}

        def labelable(t: Tree) -> bool:
            srt = t.sorts or ("*",) * t.n
            return all(srt[v - 1] in leaves if v in t.L else (
                tuple(srt[c - 1] for c in t.kids[v]), srt[v - 1]) in self.operad.components
                for v in range(1, t.n + 1))
        keys = []
        for n in range(1, n_max + 1):
            for t in filter(labelable, enumerate_trees(n, True, sorts)):
                p = self._plan(t)
                for labels, _, tied in self._sorted_labelings(p, t.n):
                    if not tied or self._canonical(p, labels):
                        keys.append(self._keys[self._id_on(p, labels)])
        return sorted(keys, key=_key_sort)

    def _canonical(self, p: _Plan, labels: tuple) -> bool:
        """Whether labels on p's canonical tree, with nondecreasing runs of
        equal-shape siblings, are their own nonzero normal form: no child
        moves, so that holds exactly when each vertex with equal labeled
        siblings is the least of its orbit and the orbit is not torsion."""
        w = self._word_on(p, labels)
        strs = list(map(self._strs.__getitem__, labels))
        for vertex in p.runs:
            vi, _, children, _ = vertex
            keys = [(run, get(strs)) for run, _, _, get in children]
            best = self._tie_orbit(vertex, keys, w, labels[vi])
            if best is not None and (not best or best[0] != labels[vi]):
                return False
        return True

    def _sorted_labelings(self, p: _Plan, v: int) -> list:
        """The labelings of the subtree at v of p's canonical tree whose
        runs of equal-shape siblings are nondecreasing in the order the
        normal form sorts them, as (labels in vertex order, label strs in
        preorder, whether some vertex has equal labeled siblings)."""
        names = sorted(p.degrees[v - 1], key=str)
        if p.tree.is_leaf(v):
            return [((nm,), (str(nm),), False) for nm in names]
        named = [(nm, (str(nm),)) for nm in names]
        runs = []
        for _, run in groupby(p.tree.kids[v], key=lambda c: p.shapes[c - 1]):
            run = list(run)
            subs = sorted(self._sorted_labelings(p, run[0]), key=lambda s: s[1])
            runs.append(combinations_with_replacement(subs, len(run)))
        out = []
        for combo in iproduct(*runs):
            parts = [sub for run in combo for sub in run]
            labels = tuple(nm for sub_labels, _, _ in parts for nm in sub_labels)
            encs = tuple(s for _, enc, _ in parts for s in enc)
            tied = any(tie for _, _, tie in parts) or any(
                a[1] == b[1] for run in combo for a, b in zip(run, run[1:]))
            out.extend((labels + (nm,), enc + encs, tied) for nm, enc in named)
        return out

    def stable_degrees(self, n_max: int) -> list[int]:
        """Quotient degrees whose homology the n_max window reports
        faithfully.

        Needs a true arity bound on the operad: with arities unbounded,
        bar degree 1 already sees arbitrarily wide bushes and no window
        is ever complete, so the stable set is empty.  A negative-degree
        label spoils the vertex-count bound the same way.
        """
        arity = self.operad.arity_bound
        if arity is None or arity == 0 or self._min_label_degree() < 0:
            return []
        out = []
        d = 0
        # bar degree D only sees trees on at most 1 + D*arity vertices, so
        # quotient degree d is safe once bar degrees d+1 and d+2 both fit
        while 1 + (d + 2) * arity <= n_max:
            out.append(d)
            d += 1
        return out

    # ------------------------------------------------------------- quotient

    def bar_quotient(self, n_max: int, deg_lo: int | None = None,
                     deg_hi: int | None = None) -> ChainComplex:
        """B = (augmented bar / bare carrier)[-1] on a window.

        The degree window is in shifted degrees and is applied exactly;
        ask for one degree of margin when reading homology off the ends.
        The suspension only renumbers degrees: the differential is the
        induced one, kept sign-free so evaluation stays a chain map, and
        its square is certified zero on construction.
        """
        keys = [
            k for k in self.enumerate_basis(
                n_max,
                None if deg_lo is None else deg_lo + 1,
                None if deg_hi is None else deg_hi + 1,
            )
            if not _is_bare(k)
        ]
        ids = {self._key_id(k): k for k in keys}
        named = self._keys
        return ChainComplex.from_raw(
            self.field, {k: self.degree_of(*k) - 1 for k in keys},
            {k: {named[i]: c for i, c in self._d(kid).items() if i in ids}
             for kid, k in ids.items()})

    # ------------------------------------------------------------- mu

    def mu_chain_map(self, quotient: ChainComplex) -> "ChainMap":
        """Evaluation bundled as a verified chain map on a quotient window.

        The target is the direct sum of the carrier sorts, so the one map
        covers every root sort at once; constructing it re-certifies the
        chain-map law column by column.
        """
        return ChainMap.from_raw(quotient, direct_sum(dict(self.algebra.carrier)),
                                 {key: self.mu_key(key) for key in quotient.degrees})

    def mu_key(self, key: BarKey) -> dict:
        """Evaluate one quotient basis term through the algebra action, as
        {(root sort, carrier name): raw}.

        Only trees with a single labeled vertex survive.  The degree sign
        makes the evaluation a chain map against the prefix f-convention
        of the internal differential.
        """
        t, labels = key
        if _is_bare(key):
            raise BarError("mu lives on the quotient; bare term given")
        p = self._plan(t)
        if len(p.non_leaves) != 1:
            return {}
        c_id = self.operad._label_id(p.sigs[t.n - 1], labels[t.n - 1])
        out = self.algebra._theta_ids(c_id, tuple(labels[c - 1] for c in t.kids[t.n]))
        srt, P = p.sorts[t.n - 1], self.field.p
        odd = (self.degree_of(t, labels) - 1) % 2
        return {(srt, nm): (-c % P if P else -c) if odd else c for nm, c in out.items()}
