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
one vertex.  The homotopy grafts a unit-labeled root on top.  Both are
certified by d.d = 0 and dh + hd = Id elementwise in the tests.

Every raw term is brought to its canonical labeled representative
through a plan built once per tree: the tree's sorts, signatures and
degree tables, its intertwiner to the canonical tree, and the canonical
tree's runs of equal-shape siblings.  Moving a term is then an index
move of its labels, the operad's monomial action at the vertices whose
child order changes, and the inversion parity of its e's and its f's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations_with_replacement, groupby
from itertools import product as iproduct
from operator import itemgetter

from kzbar.algebras import Algebra
from kzbar.complexes import ChainComplex, ChainMap, direct_sum
from kzbar.fields import Scalar
from kzbar.linalg import Vec, vec_iaxpy
from kzbar.operads import CapExceeded, OperadElement
from kzbar.signs import (
    SignWord,
    block_swap_sign,
    left_mul_f,
    multiply,
    partial_e,
    relabel,
    word,
)
from kzbar.trees import (
    Tree,
    assemble,
    canonical_form,
    child_index,
    edge_contract,
    encode,
    enumerate_trees,
    graft,
    leaf_contract,
    successors,
)


class BarError(ValueError):
    pass


BarKey = tuple  # (Tree, labels tuple indexed by vertex)
BarVec = dict  # BarKey -> Scalar


def _is_bare(key: BarKey) -> bool:
    t, _ = key
    return t.n == 1 and 1 in t.L


@cache
def _key_order(key: BarKey):
    """The sort key of bar keys, memoized per key value like ``encode``."""
    t, labels = key
    return (t.n, str(encode(t)), str(t.s), str(sorted(t.L)), str(labels))


@dataclass(frozen=True)
class BarTerm:
    """One basis element with its derived word, for display and checks."""

    tree: Tree
    labels: tuple
    word: SignWord
    degree: int


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
    """

    __slots__ = ("tree", "sorts", "sigs", "degrees", "shapes", "non_leaves",
                 "canon", "sigma", "moved", "runs")


class BarComplex:
    """The augmented bar construction of an algebra over its operad."""

    def __init__(self, algebra: Algebra, name: str = "bar") -> None:
        self.algebra = algebra
        self.operad = algebra.operad
        self.field = algebra.field
        self.name = name
        self._d_memo: dict = {}
        self._h_memo: dict = {}
        self._normal_memo: dict = {}  # (t, labels, es, fs) -> (key, c) or ()
        self._orbit_memo: dict = {}  # (sig, gens, label) -> (name, c) or ()
        self._plans: dict[Tree, _Plan] = {}
        self._witness_memo: dict = {}  # tree -> (edges, leaves)
        self._contraction_memo: dict = {}  # (tree, word) -> (edges, leaves)
        self._basis_memo: dict[int, list[BarKey]] = {}
        self._word_memo: dict[BarKey, SignWord] = {}
        self._unit = {1: self.field.one, -1: -self.field.one}  # word signs

    # ----------------------------------------------------------- structure

    def _plan(self, t: Tree) -> _Plan:
        p = self._plans.get(t)
        if p is None:
            p = self._plans[t] = self._build_plan(t)
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
        p.moved, p.runs = [], []
        t_c, p.sigma = canonical_form(t)
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
        hit = self._word_memo.get((t, labels))
        if hit is None:
            p = self._plan(t)
            fs = tuple(v for v, table, lab in zip(range(1, t.n + 1), p.degrees, labels)
                       if table[lab] % 2)
            hit = self._word_memo[(t, labels)] = SignWord(1, p.non_leaves, fs)
        return hit

    def term(self, t: Tree, labels: tuple) -> BarTerm:
        return BarTerm(t, labels, self.basis_word(t, labels),
                       self.degree_of(t, labels))

    def check_key(self, key: BarKey) -> None:
        """Validate the redundantly stored invariants on a basis key."""
        t, labels = key
        if len(labels) != t.n:
            raise BarError(f"label count {len(labels)} for a {t.n}-vertex tree")
        for v in range(1, t.n + 1):
            srt = self._sort_of(t, v)
            if t.is_leaf(v):
                carrier = self.algebra.carrier.get(srt)
                if carrier is None or labels[v - 1] not in carrier.degrees:
                    raise BarError(f"leaf {v} label {labels[v - 1]!r} unknown")
            else:
                sig = self._component_sig(t, v)
                comp = self.operad.component(sig)
                if comp is None or labels[v - 1] not in comp.degrees:
                    raise BarError(
                        f"vertex {v} label {labels[v - 1]!r} not in component {sig}"
                    )
        w = self.basis_word(t, labels)
        if set(w.es) != set(t.non_leaves()):
            raise BarError("e-support must cover exactly the non-leaf vertices")

    # ------------------------------------------------------------ normal form

    def _monomial_perm(self, sig, pi: tuple, name):
        tgt_sig, vec = self.operad.perm_matrix(sig, pi)[name]
        del tgt_sig  # the destination vertex's children fix the signature
        if len(vec) != 1:
            raise BarError(
                "tree normalization needs a monomial symmetric action; "
                f"component {sig} acts non-monomially on {name!r}"
            )
        (nm, cf), = vec.items()
        return nm, cf

    def normalize_term(self, t: Tree, w: SignWord, labels: tuple,
                       coeff: Scalar) -> BarVec:
        """Transport to the canonical labeled representative.

        The result does not depend on how the raw term was produced; a
        term fixed by a label-preserving symmetry of sign -1 is zero.  It
        is linear in coeff and in the sign of w, so the normal form of the
        sign +1 term is memoized per (t, labels, es, fs).  Every call gets
        a fresh vector, and a failed parity check is never memoized, so it
        raises on every call.
        """
        if w.sign == 0 or coeff.is_zero():
            return {}
        hit = self._normal_hit(t, labels, w.es, w.fs)
        if not hit:
            return {}
        key, c = hit
        c = coeff * c
        return {key: c if w.sign == 1 else -c}

    def _normal_hit(self, t: Tree, labels: tuple, es: tuple, fs: tuple):
        """The memoized normal form of the sign +1 term (t, es, fs, labels)."""
        memo_key = (t, labels, es, fs)
        hit = self._normal_memo.get(memo_key)
        if hit is None:
            hit = self._normal_memo[memo_key] = self._normal_form(
                t, labels, SignWord(1, es, fs))
        return hit

    def _normal_form(self, t: Tree, labels: tuple, w: SignWord):
        """(canonical key, coefficient) of the term (t, w, labels, 1), or
        () when it is zero.

        Everything that depends on the tree alone is read off its plan.
        The labels move to the canonical tree by an index move, with the
        operad's monomial action at the vertices whose child order the
        intertwiner changes.  Then, bottom-up at each vertex with equal-
        shape siblings, the children are sorted by (run, labels in
        preorder), the action applies the child permutation at the
        vertex, and the vertex label moves to the least of its orbit
        under swaps of equal labeled siblings.  The word moves by
        ``relabel`` and each swap is signed by ``block_swap_sign``.
        """
        p = self._plan(t)
        coeff = self.field.one
        if p.sigma is not None:
            labels, w, coeff = self._carry(p.sigma, p.moved, labels, w, coeff)
            p = p.canon
        if p.runs:
            labels = list(labels)
            strs = [str(lab) for lab in labels]
        for vi, sig, children, swaps in p.runs:
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
                strs = [str(lab) for lab in labels]
                keys = [keys[i] for i in order]
            gens = []
            for i, swap in enumerate(swaps):
                if keys[i] == keys[i + 1]:
                    a, b = children[i][1], children[i + 1][1]
                    gens.append((swap, block_swap_sign(w, a, b, b + children[i + 1][2])))
            if gens:
                best = self._orbit_min(sig, tuple(gens), labels[vi])
                if not best:
                    return ()
                if best[0] != labels[vi]:
                    labels[vi], strs[vi] = best[0], str(best[0])
                    coeff = coeff * best[1]
        labels = tuple(labels)
        coeff = coeff * self._unit[w.sign]
        base = self.basis_word(p.tree, labels)
        if base.es != w.es or base.fs != w.fs:
            raise BarError(f"normalized word {w} disagrees with parities on {p.tree}")
        if coeff.is_zero():
            return ()
        return (p.tree, labels), coeff

    def _carry(self, sigma, at, labels, w: SignWord, coeff: Scalar):
        """Move (labels, w, coeff) along the vertex map sigma, with the
        operad's action on the label of each (vertex index, signature, pi)
        in at."""
        moved = [None] * len(labels)
        for i, lab in enumerate(labels):
            moved[sigma[i] - 1] = lab
        for i, sig, pi in at:
            moved[sigma[i] - 1], cf = self._monomial_perm(sig, pi, labels[i])
            coeff = coeff * cf
        return moved, relabel(w, lambda k: sigma[k - 1]), coeff

    def _orbit_min(self, sig, gens: tuple, start):
        """The str-least label in the orbit of start under the swaps gens
        = ((pi, word sign), ...), with the sign carrying start to it, or
        () when the orbit reaches one label with both signs (torsion);
        memoized per (sig, gens, label).  One walk memoizes every label it
        saw: u with sign s_u from start goes to the least one with
        s_best * s_u^-1, and in a torsion orbit every label is zero."""
        hit = self._orbit_memo.get((sig, gens, start))
        if hit is not None:
            return hit
        best_name = start
        seen = {start: self.field.one}
        frontier = [(start, self.field.one)]
        while frontier:
            cur, csgn = frontier.pop()
            for pi, ws in gens:
                nm, cf = self._monomial_perm(sig, pi, cur)
                nsgn = csgn * cf * self._unit[ws]
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
            self._orbit_memo[(sig, gens, u)] = (best_name, best_sign * s_u.inv())
        return self._orbit_memo[(sig, gens, start)]

    def basis_vector(self, t: Tree, labels: tuple) -> BarVec:
        return self.normalize_term(t, self.basis_word(t, labels), labels,
                                   self.field.one)

    # ------------------------------------------------------------ operations

    def _contraction_plan(self, t: Tree, w: SignWord):
        """The contraction summands of d on a tree with word w, memoized
        per (t, w): (q, parent, witness, contracted word) for the edge
        above each non-root vertex q, and (j, j, witness, contracted word)
        for each fully-leafed vertex j, with the zero words dropped.  The
        second entry is the vertex whose e the summand removes.  The
        witnesses are memoized per tree."""
        plan = self._contraction_memo.get((t, w))
        if plan is not None:
            return plan
        wits = self._witness_memo.get(t)
        if wits is None:
            nl = t.non_leaves()
            wits = self._witness_memo[t] = (
                [(q, t.parent(q), edge_contract(t, q)) for q in nl if q != t.n],
                [(j, j, leaf_contract(t, j - len(t.kids[j]), j)) for j in nl
                 if all(c in t.L for c in t.kids[j])],
            )
        plan = self._contraction_memo[(t, w)] = tuple(
            [(q, v, wit, dw) for q, v, wit in group
             for dw in (relabel(partial_e(v, w), lambda k: wit.rho[k - 1],
                                target=wit.result),)
             if dw.sign != 0]
            for group in wits)
        return plan

    def _place(self, out: BarVec, t: Tree, w: SignWord, labels, spot: int,
               vec: Vec) -> None:
        """out += the normal form of each term of vec put at vertex spot + 1
        of (t, w, labels), times its coefficient; vec maps a label to its
        coefficient and is walked in str order of the labels."""
        if w.sign == 0:
            return
        lab2 = list(labels)
        for nm, cf in sorted(vec.items(), key=lambda kv: str(kv[0])):
            lab2[spot] = nm
            hit = self._normal_hit(t, tuple(lab2), w.es, w.fs)
            if hit:
                key, c = hit
                vec_iaxpy(out, cf, {key: c if w.sign == 1 else -c})

    def _theta_at(self, t: Tree, v: int, labels: tuple) -> Vec:
        """The action of vertex v's label on the labels of its children,
        all leaves: one read of the algebra's table."""
        return self.algebra.theta_basis(self._component_sig(t, v), labels[v - 1],
                                        tuple(labels[c - 1] for c in t.kids[v]))

    def differential_key(self, key: BarKey) -> BarVec:
        """d of one basis key, memoized per key; callers only read it."""
        hit = self._d_memo.get(key)
        if hit is not None:
            return hit
        t, labels = key
        w = self.basis_word(t, labels)
        out: BarVec = {}
        edges, leaves = self._contraction_plan(t, w)
        sigs = self._plan(t).sigs

        # contract the edge above q, composing q into its parent's slot
        for q, parent, wit, dw in edges:
            p_sig = sigs[parent - 1]
            xs = [self.operad.unit_label(s) for s in p_sig[0]]
            xs[child_index(t, q) - 1] = (sigs[q - 1], labels[q - 1])
            _, merged = self.operad.gamma_basis(p_sig, labels[parent - 1], tuple(xs))
            lab2 = [labels[wit.tau[r - 1] - 1] for r in range(1, wit.result.n + 1)]
            self._place(out, wit.result, dw, lab2, wit.rho[q - 1] - 1, merged)

        # contract a fully-leafed vertex into a new leaf via the action
        for j, _, wit, dw in leaves:
            lab2 = [labels[wit.tau[r - 1] - 1] for r in range(1, wit.result.n + 1)]
            self._place(out, wit.result, dw, lab2, j - len(t.kids[j]) - 1,
                        self._theta_at(t, j, labels))

        # internal differential at one vertex
        for v in range(1, t.n + 1):
            comp = (self.algebra.carrier[sigs[v - 1][1]] if t.is_leaf(v)
                    else self.operad.components[sigs[v - 1]])
            dlab = comp.d.get(labels[v - 1])
            if dlab:
                self._place(out, t, left_mul_f(v, w), labels, v - 1, dlab)
        self._d_memo[key] = out
        return out

    def differential(self, vec: BarVec) -> BarVec:
        out: BarVec = {}
        for key, c in sorted(vec.items(), key=lambda kv: _key_order(kv[0])):
            vec_iaxpy(out, c, self.differential_key(key))
        return out

    def differential_quotient(self, vec: BarVec) -> BarVec:
        """The differential with bare-carrier terms killed."""
        return {k: c for k, c in self.differential(vec).items()
                if not _is_bare(k)}

    def homotopy_key(self, key: BarKey) -> BarVec:
        """h of one basis key, memoized per key; callers only read it."""
        hit = self._h_memo.get(key)
        if hit is None:
            t, labels = key
            t2 = graft(t)
            unit = self.operad.unit_names[self._sort_of(t, t.n)]
            w2 = multiply(word((t2.n,), ()), self.basis_word(t, labels))
            hit = self._h_memo[key] = self.normalize_term(
                t2, w2, labels + (unit,), self.field.one)
        return hit

    def homotopy(self, vec: BarVec) -> BarVec:
        out: BarVec = {}
        for key, c in sorted(vec.items(), key=lambda kv: _key_order(kv[0])):
            vec_iaxpy(out, c, self.homotopy_key(key))
        return out

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
        is kept only if normalizing leaves it in place.  A shape gets a
        plan only if each vertex's signature is a component of the operad
        and each leaf's sort a carrier sort, so that every vertex has labels.
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
                for labels, _, tied in self._sorted_labelings(self._plan(t), t.n):
                    if not tied or (t, labels) in self.basis_vector(t, labels):
                        keys.append((t, labels))
        return sorted(keys, key=_key_order)

    def _sorted_labelings(self, p: _Plan, v: int) -> list:
        """The labelings of the subtree at v of p's canonical tree whose
        runs of equal-shape siblings are nondecreasing in the order the
        normal form sorts them, as (labels in vertex order, label strs in
        preorder, whether some vertex has equal labeled siblings)."""
        names = sorted(p.degrees[v - 1], key=str)
        if p.tree.is_leaf(v):
            return [((nm,), (str(nm),), False) for nm in names]
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
            out.extend((labels + (nm,), (str(nm),) + encs, tied) for nm in names)
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
        keep = set(keys)
        degs = {k: self.degree_of(*k) - 1 for k in keys}
        d_cols = {}
        for k in keys:
            col = {k2: c for k2, c in self.differential_key(k).items()
                   if k2 in keep}
            if col:
                d_cols[k] = col
        return ChainComplex(self.field, degs, d_cols)

    # ------------------------------------------------------------- mu

    def mu_key(self, key: BarKey) -> Vec:
        """Evaluate one quotient basis term through the algebra action.

        Only trees with a single labeled vertex survive.  The degree sign
        makes the evaluation a chain map against the prefix f-convention
        of the internal differential.
        """
        t, labels = key
        if _is_bare(key):
            raise BarError("mu lives on the quotient; bare term given")
        if len(t.non_leaves()) != 1:
            return {}
        out = self._theta_at(t, t.n, labels)
        if (self.degree_of(t, labels) - 1) % 2:
            out = {nm: -c for nm, c in out.items()}
        return out

    def mu(self, vec: BarVec) -> dict[str, Vec]:
        """Evaluate a quotient element; one component per carrier sort."""
        out: dict[str, Vec] = {}
        for key, c in sorted(vec.items(), key=lambda kv: _key_order(kv[0])):
            t, _ = key
            vec_iaxpy(out.setdefault(self._sort_of(t, t.n), {}), c,
                      self.mu_key(key))
        return {srt: v for srt, v in out.items() if v}

    def mu_chain_map(self, quotient: ChainComplex) -> "ChainMap":
        """Evaluation bundled as a verified chain map on a quotient window.

        The target is the direct sum of the carrier sorts, so the one map
        covers every root sort at once; constructing it re-certifies the
        chain-map law column by column.
        """
        target = direct_sum(dict(self.algebra.carrier))
        entries = {}
        for key in quotient.basis():
            vec = {}
            for srt, comp in self.mu({key: self.field.one}).items():
                for nm, c in comp.items():
                    vec[(srt, nm)] = c
            if vec:
                entries[key] = vec
        return ChainMap(quotient, target, entries)

    # ------------------------------------------------------------- action

    def bar_algebra_action(self, vs: list[BarVec], c: OperadElement,
                           n_cap: int | None = None) -> BarVec:
        """Join quotient elements under a new root composed through c."""
        if not isinstance(c, OperadElement):
            raise BarError("the joining label must be an operad element")
        out: BarVec = {}
        factor_terms = [sorted(v.items(), key=lambda kv: _key_order(kv[0]))
                        for v in vs]
        for combo in iproduct(*factor_terms):
            coeff = self.field.one
            for _, cf in combo:
                coeff = coeff * cf
            for c_name, cc in sorted(c.vec.items(), key=lambda kv: str(kv[0])):
                vec_iaxpy(out, coeff * cc, self._action_basis(
                    [k for k, _ in combo], c.sig, c_name, n_cap))
        return out

    def _action_basis(self, keys: list[BarKey], c_sig, c_name,
                      n_cap: int | None) -> BarVec:
        m = len(keys)
        for key in keys:
            if _is_bare(key):
                raise BarError("action factors must lie in the quotient")
        n_new = sum(t.n for t, _ in keys) - m + 1
        if n_cap is not None and n_new > n_cap:
            raise CapExceeded(f"joined tree has {n_new} vertices, cap {n_cap}")
        root_sort = c_sig[1] if len(self.operad.sorts) > 1 else None
        t_new = assemble([st for t, _ in keys for st in successors(t)], root_sort)
        # assemble keeps each factor's non-root vertices in order and merges
        # the roots into the new one
        maps = []
        offset = 0
        for t, _ in keys:
            mapping = {v: v + offset for v in range(1, t.n)}
            mapping[t.n] = n_new
            maps.append(mapping)
            offset += t.n - 1

        _, merged = self.operad.gamma_basis(c_sig, c_name, tuple(
            (self._component_sig(t, t.n), labels[t.n - 1]) for t, labels in keys))

        c_odd = self.operad.degree_of(c_sig, c_name) % 2 == 1
        w_acc = word((n_new,), (n_new,) if c_odd else ())
        for (t, labels), mapping in zip(keys, maps):
            wq = partial_e(t.n, self.basis_word(t, labels))
            wq = relabel(wq, lambda k: mapping[k])
            w_acc = multiply(w_acc, wq)
            if w_acc.sign == 0:
                return {}

        lab2 = [None] * n_new
        for (t, labels), mapping in zip(keys, maps):
            for v in range(1, t.n):
                lab2[mapping[v] - 1] = labels[v - 1]
        out: BarVec = {}
        self._place(out, t_new, w_acc, lab2, n_new - 1, merged)
        return out
