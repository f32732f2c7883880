"""Algebras over an operad, and free algebras with their coinvariant
arity parts.

An algebra is a carrier complex per sort plus structure constants
theta(x_1..x_n; c) on basis tuples.  Sign conventions put the operad
label last: theta is evaluated on x_1 (x) ... (x) x_n (x) c, and every
axiom's sign is the Koszul cost of reshuffling that tensor order.

Free algebras quotient X^{(x)n} (x) C(n) by the diagonal symmetric group
action.  ``FreeAlgebra`` owns the arithmetic of the words (sig,
generator word, label) of that space and their Koszul signs: ``word_d``
is the internal differential of one word and ``compose`` composes word
vectors through a label by reading the operad's table on label ids.
Word vectors hold raw values, residues mod p or Fractions, as the
tables do; only the ``Algebra`` element API and the rule of
``monad_theta`` hand out Scalars.  An arity part is its classes and the
projection onto them; only a caller that reads the part's classes or
differential builds them, and a caller that walks the classes builds
them one at a time, already in str order, so it can stop at any class
without enumerating the rest.  The operad's certificate picks the route.
A free-module operad, on whose labels of C(n) Sigma_n acts freely and
monomially, takes the orbit route, which reads the quotient off a
transversal of the label orbits: each class is named by its root word,
the one word of its diagonal orbit whose label is the root of its label
orbit, and projecting a word is a lookup plus the Koszul sign of the
permutation that carries its label to the root.  Every other operad
takes the elimination route, which computes the quotient as a cokernel
by exact elimination.  An operad certified as a free module whose action
is not free raises AlgebraError.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product as iproduct
from operator import itemgetter
from typing import TYPE_CHECKING

from kzbar import KzbarError
from kzbar.complexes import ChainComplex, ChainMap
from kzbar.fields import Scalar
from kzbar.linalg import Vec, echelon_raw, raw_iaxpy, vec_axpy, vec_box, vec_scale
from kzbar.operads import (CapExceeded, Operad, OperadElement, Sig, _arity_tuples,
                            _past_parity, _raw_neg, _raw_tables)

if TYPE_CHECKING:
    from kzbar.bar import BarComplex


class AlgebraError(KzbarError):
    pass


class AlgebraElement:
    __slots__ = ("algebra", "sort", "vec")

    def __init__(self, algebra: Algebra, sort: str, vec: Vec) -> None:
        self.algebra = algebra
        self.sort = sort
        self.vec = vec

    def is_zero(self) -> bool:
        return not self.vec

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.sort != other.sort:
            raise AlgebraError("cannot add elements of different sorts")
        return AlgebraElement(self.algebra, self.sort,
                              vec_axpy(self.vec, self.algebra.field.one, other.vec))

    def scale(self, s: Scalar) -> "AlgebraElement":
        return AlgebraElement(self.algebra, self.sort, vec_scale(self.vec, s))


class Algebra:
    """Operad algebra with basis-level structure constants.

    theta_rule(c_sig, c_name, xs) -> Vec over the output sort's carrier,
    xs a tuple of carrier basis names matching c's input sorts.

    The structure constants live in one table, ``_theta_memo``, filled
    from theta_rule on first read: it maps (label id of c in the operad,
    carrier-name tuple) to {carrier name: raw value}, a raw value being a
    residue mod p or a Fraction.  A miss checks the argument names and
    the field of every coefficient theta_rule returns.  Inner layers read
    it through ``theta_basis``; ``theta_eval`` unboxes and boxes at the
    public edge only.
    """

    def __init__(self, operad: Operad, carrier: dict[str, ChainComplex],
                 theta_rule, name: str = "algebra") -> None:
        self.operad = operad
        self.field = operad.field
        self.carrier = dict(carrier)
        self._theta_rule = theta_rule
        self.name = name
        self._theta_memo: dict = {}
        for srt, comp in self.carrier.items():
            if comp.field != self.field:
                raise AlgebraError(f"carrier of sort {srt!r} over wrong field")

    @cached_property
    def bar(self) -> "BarComplex":
        """This algebra's one bar complex.  Its differential and basis
        memos serve every construction and suite built on the algebra."""
        from kzbar.bar import BarComplex  # the bar construction builds on this module

        return BarComplex(self)

    def carrier_degree(self, sort: str, name) -> int:
        return self.carrier[sort].degrees[name]

    def basis_element(self, sort: str, name) -> AlgebraElement:
        if name not in self.carrier[sort].degrees:
            raise AlgebraError(f"{name!r} is not a basis name of sort {sort!r}")
        return AlgebraElement(self, sort, {name: self.field.one})

    def _theta_ids(self, c: int, xs: tuple) -> dict:
        """The table entry of theta(xs; c) for the label id c.  A miss
        checks the arity and every argument name, reads theta_rule and
        checks the field of every coefficient; a CapExceeded from the
        rule is not memoized."""
        key = (c, xs)
        hit = self._theta_memo.get(key)
        if hit is not None:
            return hit
        c_sig, c_name = self.operad._labels[c]
        ins = c_sig[0]
        if len(xs) != len(ins):
            raise AlgebraError(
                f"theta arity mismatch: {len(xs)} arguments for {c_sig}"
            )
        for x_name, srt in zip(xs, ins):
            if x_name not in self.carrier[srt].degrees:
                raise AlgebraError(
                    f"{x_name!r} is not a basis name of sort {srt!r}"
                )
        raw = self.field.raw
        hit = {}
        for nm, cf in self._theta_rule(c_sig, c_name, xs).items():
            v = raw(cf)
            if v:
                hit[nm] = v
        self._theta_memo[key] = hit
        return hit

    def _theta_raw(self, c_vec: dict, xs: list[dict]) -> dict:
        """theta(x_1..x_n; c) on raw vectors, c's over label ids, multilinear
        in everything, read off the table; a fresh vector."""
        p = self.field.p
        target: dict = {}
        for c, cc in c_vec.items():
            for combo in iproduct(*(x.items() for x in xs)):
                coeff = cc
                for _, cx in combo:
                    if cx != 1:
                        coeff = coeff * cx % p if p else coeff * cx
                raw_iaxpy(target, coeff, self._theta_ids(c, tuple(n for n, _ in combo)), p)
        return target

    def theta_basis(self, c_sig: Sig, c_name, xs: tuple) -> Vec:
        """Structure constants on a basis tuple; xs = carrier names.  A
        boxed reader of the table: a fresh vector of Scalars.  The
        argument names are checked when the entry is filled, and a c
        that is not a label of the operad raises OperadError."""
        F = self.field
        hit = self._theta_ids(self.operad._label_id(c_sig, c_name), tuple(xs))
        return {nm: Scalar(F, v) for nm, v in hit.items()}

    def theta_eval(self, xs: list[AlgebraElement], c: OperadElement) -> AlgebraElement:
        """theta(x_1..x_n; c) on elements, multilinear in everything.  The
        inputs are unboxed once, every coefficient's field checked."""
        ins, out = c.sig
        if len(xs) != len(ins):
            raise AlgebraError(f"theta arity mismatch: {len(xs)} arguments for {c.sig}")
        for x, srt in zip(xs, ins):
            if x.sort != srt:
                raise AlgebraError(f"sort mismatch: {x.sort!r} fed into {srt!r} slot")
        F = self.field
        raw = self._theta_raw(self.operad._unbox(c.sig, c.vec),
                              [{nm: F.raw(cf) for nm, cf in x.vec.items()} for x in xs])
        return AlgebraElement(self, out, {nm: Scalar(F, v) for nm, v in raw.items()})


# ------------------------------------------------------------------ report


class AlgebraReport:
    __slots__ = ("algebra", "failures", "checks_run")

    def __init__(self, algebra: str) -> None:
        self.algebra = algebra
        self.failures: list[str] = []
        self.checks_run = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def _carrier_tuples(alg: Algebra, sorts: tuple[str, ...]):
    pools = [sorted(alg.carrier[s].basis(), key=str) for s in sorts]
    return iproduct(*pools)


def verify_algebra(alg: Algebra) -> AlgebraReport:
    """Exhaustive check of the action axioms on basis tuples in cap, run on
    the structure-constant tables of the algebra and its operad: labels
    are ids and coefficients raw values, and an id is named only to
    format a failure.  An instance whose theta raises CapExceeded is
    skipped."""
    rep = AlgebraReport(algebra=alg.name)
    op = alg.operad
    p, one = alg.field.p, alg.field.one.val
    ids, labels = op._ids, op._labels
    deg = op._degs
    cdeg = {s: c.degrees for s, c in alg.carrier.items()}
    theta = alg._theta_ids
    swap, d_op = _raw_tables(op)

    def d_car(srt: str, name) -> dict:
        return alg.carrier[srt].raw_d.get(name, {})

    # unit law
    for srt, comp in sorted(alg.carrier.items()):
        if srt not in op.unit_names:
            continue
        u = ids[(((srt,), srt), op.unit_names[srt])]
        for name in comp.basis():
            rep.checks_run += 1
            if theta(u, (name,)) != {name: one}:
                rep.failures.append(f"theta(x; 1) != x at sort {srt!r} {name!r}")

    # equivariance on adjacent transpositions
    for c_sig in op.signatures():
        ins = c_sig[0]
        n = len(ins)
        if n < 2:
            continue
        for c_name in op.components[c_sig].basis():
            c = ids[(c_sig, c_name)]
            for xs in _carrier_tuples(alg, ins):
                for k in range(1, n):
                    swapped = xs[:k - 1] + (xs[k], xs[k - 1]) + xs[k + 1:]
                    try:
                        lhs: dict = {}
                        for j, cf in swap(c, k).items():
                            raw_iaxpy(lhs, cf, theta(j, swapped), p)
                        rhs = theta(c, xs)
                    except CapExceeded:
                        continue
                    if cdeg[ins[k - 1]][xs[k - 1]] % 2 and cdeg[ins[k]][xs[k]] % 2:
                        rhs = _raw_neg(rhs, p)
                    rep.checks_run += 1
                    if lhs != rhs:
                        rep.failures.append(
                            f"equivariance fails: c={c_sig}:{c_name!r} xs={list(xs)} s_{k}"
                        )

    # composition: theta(theta(block_i; c_i)...; c) against theta(xs;
    # gamma(cs; c)), up to the Koszul sign of moving each label c_i right
    # past the later blocks; every carrier tuple xs is compared
    for c_sig in op.signatures():
        for c_name in op.components[c_sig].basis():
            c = ids[(c_sig, c_name)]
            c_vec = {c: one}
            for cs, _ in _arity_tuples(op, op.cap, c_sig[0]):
                comp_sig, comp = op._gamma_ids(c, cs)
                cuts, pos = [], 0
                for ci in cs:
                    w = len(labels[ci][0][0])
                    cuts.append((ci, pos, pos + w))
                    pos += w
                any_odd = any(deg[ci] % 2 for ci in cs)
                for xs in _carrier_tuples(alg, comp_sig[0]):
                    try:
                        lhs = alg._theta_raw(c_vec, [theta(ci, xs[a:b]) for ci, a, b in cuts])
                        rhs = {}
                        for m, cm in comp.items():
                            raw_iaxpy(rhs, cm, theta(m, xs), p)
                    except CapExceeded:
                        continue
                    if any_odd and _past_parity([
                            (deg[ci], sum(cdeg[s][x] for s, x in zip(labels[ci][0][0], xs[a:b])))
                            for ci, a, b in cuts]):
                        rhs = _raw_neg(rhs, p)
                    rep.checks_run += 1
                    if lhs != rhs:
                        rep.failures.append(
                            f"composition fails: c={c_sig}:{c_name!r} "
                            f"cs={[labels[ci][1] for ci in cs]} xs={list(xs)}"
                        )

    # Leibniz
    for c_sig in op.signatures():
        ins, out = c_sig
        for c_name in op.components[c_sig].basis():
            c = ids[(c_sig, c_name)]
            for xs in _carrier_tuples(alg, ins):
                try:
                    lhs = {}
                    for nm, v in theta(c, xs).items():
                        raw_iaxpy(lhs, v, d_car(out, nm), p)
                    rhs, sgn = {}, 1
                    for i, x in enumerate(xs):
                        for nm, cf in d_car(ins[i], x).items():
                            raw_iaxpy(rhs, sgn * cf, theta(c, xs[:i] + (nm,) + xs[i + 1:]), p)
                        if cdeg[ins[i]][x] % 2:
                            sgn = -sgn
                    for m, cf in d_op(c).items():
                        raw_iaxpy(rhs, sgn * cf, theta(m, xs), p)
                except CapExceeded:
                    continue
                rep.checks_run += 1
                if lhs != rhs:
                    rep.failures.append(
                        f"Leibniz fails: c={c_sig}:{c_name!r} xs={list(xs)}"
                    )
    return rep


# ------------------------------------------------------------- free algebras


class FreePart:
    """One arity part of a free algebra: the projection of the words of
    the un-quotiented space onto its classes, built with the part.  The
    class representatives in str order, their degrees, the degree of
    every word of the un-quotiented space and the certified complex are
    built on first read.  ``walk`` hands the representatives out in the
    same order as they are built, so a reader that stops early builds
    only what it read; a walk that runs to the end leaves them cached as
    ``degrees``, so no part is enumerated twice."""

    def __init__(self, free: "FreeAlgebra", n: int, out_sort: str) -> None:
        self.free = free
        self.n = n
        self.out_sort = out_sort
        route = (free._coinvariants_by_orbit if free.operad.certificate == "free-module"
                 else free._coinvariants_by_elimination)
        # project: raw vector over words -> raw vector over representatives;
        # classes: () -> iterator of (representative, degree) in str order
        self.project, self._classes = route(self)

    def walk(self):
        """Yield (representative, degree) in str order as they are built."""
        if "degrees" in vars(self):
            yield from self.degrees.items()
            return
        degs = {}
        for rep, deg in self._classes():
            degs[rep] = deg
            yield rep, deg
        self.degrees = degs

    @cached_property
    def degrees(self) -> dict:
        return dict(self._classes())

    @cached_property
    def reps(self) -> list:
        return list(self.degrees)

    @cached_property
    def big_degrees(self) -> dict:
        return dict(self.free._iter_words(self.n, self.out_sort))

    @cached_property
    def complex(self) -> ChainComplex:
        d = {r: self.project(self.free.word_d(r)) for r in self.reps}
        return ChainComplex.from_raw(self.free.field, self.degrees, d)


class FreeAlgebra:
    """Free algebra on generator complexes, arity parts built on demand."""

    def __init__(self, generators: dict[str, ChainComplex], operad: Operad) -> None:
        self.generators = dict(generators)
        self.operad = operad
        self.field = operad.field
        self._parts: dict = {}
        for srt, comp in self.generators.items():
            if comp.field != self.field:
                raise AlgebraError(f"generators of sort {srt!r} over wrong field")
        if operad.certificate == "free-module":
            for n in sorted({len(sig[0]) for sig in operad.components}):
                self._free_orbits(n)

    def _free_orbits(self, n: int):
        """The label orbits of arity n; the orbit route needs them free, so
        an operad wrongly certified as a free module is refused here."""
        walk = self.operad.label_orbits(n)
        if walk.fault is not None:
            raise AlgebraError(f"orbit route needs a free monomial action: {walk.fault}")
        bad = walk.size_faults(n)
        if bad:
            raise AlgebraError(f"orbit route needs a free action: {bad[0]}")
        return walk

    @cached_property
    def _pools(self) -> dict:
        """Per sort, the generators with their degrees in repr order."""
        return {s: sorted(g.degrees.items(), key=lambda kv: repr(kv[0]))
                for s, g in self.generators.items()}

    def _iter_words(self, n: int, out_sort: str, labels=None):
        """Yield (word, degree) for the words (sig, generator word, c name)
        of the pre-quotient space, or for those whose label (sig, c name)
        is in labels, in str order of the words, with no sort.

        str(word) is repr(sig), repr(x_1) .. repr(x_n) and repr(c) joined
        by fixed separators, each starting with ", ", ")" or ",)".  These
        reprs are prefix-free (tuples balance their parentheses, strings
        end at their closing quote, bar keys are tuples), except that an
        int's repr may continue another's with a digit, and a digit sorts
        after both "," and ")".  So two words first differ inside their
        first differing component, and str order is the lexicographic
        order of the component reprs.  The signatures come in str order,
        which for a tuple is repr order, and the generator pools and the
        labels are sorted by repr; the product of the pools, labels
        innermost, then runs in str order.
        """
        pools = self._pools
        for sig in self.operad.arity_signatures(n):
            ins = sig[0]
            if sig[1] != out_sort or any(s not in pools for s in ins):
                continue
            cs = sorted(((c, dc) for c, dc in self.operad.components[sig].degrees.items()
                         if labels is None or (sig, c) in labels),
                        key=lambda kv: repr(kv[0]))
            if not cs:
                continue
            for combo in iproduct(*(pools[s] for s in ins)):
                xw = tuple(x for x, _ in combo)
                dx = sum(d for _, d in combo)
                for c, dc in cs:
                    yield (sig, xw, c), dx + dc

    def _diagonal_swap(self, name, k: int) -> dict:
        """Image of a big basis element under s_k, with Koszul sign, as
        raw values."""
        sig, xw, c_name = name
        F = self.field
        da = self.generators[sig[0][k - 1]].degrees[xw[k - 1]]
        db = self.generators[sig[0][k]].degrees[xw[k]]
        xw2 = list(xw)
        xw2[k - 1], xw2[k] = xw2[k], xw2[k - 1]
        sig2, cvec = self.operad.apply_transposition(sig, k, {c_name: F.one})
        out = {}
        raw_iaxpy(out, -1 if da % 2 and db % 2 else 1,
                  {(sig2, tuple(xw2), nm): F.raw(cf) for nm, cf in cvec.items()}, F.p)
        return out

    def part(self, n: int, out_sort: str = "*") -> FreePart:
        key = (n, out_sort)
        hit = self._parts.get(key)
        if hit is None:
            hit = self._parts[key] = FreePart(self, n, out_sort)
        return hit

    def word_d(self, big) -> dict:
        """Internal differential of one word, on raw values: each
        generator's d under the sign of the generators to its left, then
        the label's d under the sign of the whole generator word."""
        sig, xw, c_name = big
        P = self.field.p
        # d moves one letter to another degree, so every term is its own
        # word and nothing cancels
        out: dict = {}
        neg = False
        for i, (s, x) in enumerate(zip(sig[0], xw)):
            gen = self.generators[s]
            for nm, cf in gen.raw_d.get(x, {}).items():
                out[(sig, xw[:i] + (nm,) + xw[i + 1:], c_name)] = \
                    (-cf % P if P else -cf) if neg else cf
            if gen.degrees[x] % 2:
                neg = not neg
        for nm, cf in self.operad.components[sig].raw_d.get(c_name, {}).items():
            out[(sig, xw, nm)] = (-cf % P if P else -cf) if neg else cf
        return out

    def compose(self, vecs: list[dict], c_sig: Sig, c_name) -> dict:
        """Compose raw word vectors through the label c_name of c_sig: each
        choice of one word per vector concatenates the generator words
        and composes the labels into c_name by one read of the operad's
        table on label ids; each label moves right past the later
        generator words at the Koszul sign.  This is the one place that
        sign is paid.  The result is an exact sum, so the order the inputs
        were built in does not change it."""
        op, p, gens = self.operad, self.field.p, self.generators
        ids, labels, degs, memo = op._ids, op._labels, op._degs, op._gamma_memo
        y = op._label_id(c_sig, c_name)
        out: dict = {}
        for combo in iproduct(*(v.items() for v in vecs)):
            coeff = 1
            for _, cf in combo:
                if cf != 1:
                    coeff = coeff * cf % p if p else coeff * cf
            words = [w for w, _ in combo]
            key = (y, tuple(ids[(sig, nm)] for sig, _, nm in words))
            if any(degs[x] % 2 for x in key[1]) and _past_parity(
                    [(degs[x], sum(gens[s].degrees[a] for s, a in zip(sig[0], xw)))
                     for x, (sig, xw, _) in zip(key[1], words)]):
                coeff = -coeff % p if p else -coeff
            t_sig, comp = memo.get(key) or op._gamma_ids(*key)
            xw_all = tuple(x for _, xw, _ in words for x in xw)
            for t, cf in comp.items():
                k = (t_sig, xw_all, labels[t][1])
                c = cf if coeff == 1 else cf * coeff
                w = out.get(k)
                if w is not None:
                    c = c + w
                if p:
                    c %= p
                if c:
                    out[k] = c
                else:
                    out.pop(k, None)
        return out

    def _coinvariants_by_elimination(self, part: FreePart):
        relations = []
        p = self.field.p
        big_degs = part.big_degrees
        for name in big_degs:
            for k in range(1, part.n):
                rel = {name: self.field.one.val}
                raw_iaxpy(rel, -1, self._diagonal_swap(name, k), p)
                if rel:
                    relations.append(rel)
        ech = echelon_raw(relations, self.field)
        pivots = set(ech.pivots)
        reps = sorted((w for w in big_degs if w not in pivots), key=str)
        return ech.reduce, lambda: ((r, big_degs[r]) for r in reps)

    def _coinvariants_by_orbit(self, part: FreePart):
        """Coinvariants of a free monomial action through a label transversal.

        Every diagonal orbit holds exactly one word whose label is the root
        of its label orbit, and that root word names the class, so
        projecting a word is a lookup plus a sign.  The classes are the
        root labels times the generator words, walked in str order only
        when read.
        """
        n, out_sort = part.n, part.out_sort
        walk = self._free_orbits(n)
        gen_degs = {s: g.degrees for s, g in self.generators.items()}
        table = {}
        for label, ((root_sig, root_name), sign, sigma) in walk.members.items():
            ins, out = label[0]
            if out != out_sort or any(s not in gen_degs for s in ins):
                continue
            pairs = tuple((sigma[a], sigma[b]) for a in range(n) for b in range(a + 1, n)
                          if sigma[a] > sigma[b])
            table[label] = (root_sig, root_name, sign,
                            itemgetter(*sigma) if pairs else None, pairs)

        p = self.field.p

        def project(vec: dict) -> dict:
            """[word] = sign [root word] on raw values, where the sign is
            the label's times the Koszul sign of the odd letters the
            permutation crosses."""
            out: dict = {}
            for (sig, xw, c_name), cf in vec.items():
                hit = table.get((sig, c_name))
                if hit is None:
                    continue
                root_sig, root_name, sign, permute, pairs = hit
                if permute is not None:
                    ins = sig[0]
                    for i, j in pairs:
                        if gen_degs[ins[i]][xw[i]] % 2 and gen_degs[ins[j]][xw[j]] % 2:
                            sign = -sign
                    xw = permute(xw)
                k = (root_sig, xw, root_name)
                if sign != 1:
                    cf = -cf % p if p else -cf
                w = out.get(k)
                if w is not None:
                    cf = cf + w
                    if p:
                        cf %= p
                    if not cf:
                        del out[k]
                        continue
                out[k] = cf
            return out

        return project, lambda: self._iter_words(n, out_sort, walk.sizes)


def free(generators, operad: Operad) -> FreeAlgebra:
    """Free algebra on a complex (single-sorted) or dict of complexes."""
    if isinstance(generators, ChainComplex):
        generators = {"*": generators}
    return FreeAlgebra(generators, operad)


def free_map(f: dict[str, ChainMap] | ChainMap, src: FreeAlgebra, dst: FreeAlgebra,
             n: int, out_sort: str = "*") -> ChainMap:
    """Arity part of the map free(X) -> free(Y) induced by degree-0 f."""
    if isinstance(f, ChainMap):
        f = {"*": f}
    sp = src.part(n, out_sort)
    dp = dst.part(n, out_sort)
    p = src.field.p
    entries = {}
    for r in sp.reps:
        sig, xw, c_name = r
        # expand f letter by letter; degree-0 maps cross without signs
        acc: dict = {(sig, (), c_name): src.field.one.val}
        for s, x in zip(sig[0], xw):
            fx = f[s].raw_entries.get(x, {})
            nxt: dict = {}
            for (sg, w, cn), cf in acc.items():
                raw_iaxpy(nxt, cf, {(sg, w + (ynm,), cn): yc for ynm, yc in fx.items()}, p)
            acc = nxt
        entries[r] = dp.project(acc)
    return ChainMap.from_raw(sp.complex, dp.complex, entries)


def monad_theta(fa: FreeAlgebra, parts_cap: int):
    """Algebra structure on the arity parts of a free algebra, given by
    composing representatives through the label and projecting; raises
    CapExceeded past the window."""
    def theta_rule(c_sig, c_name, xs):
        # xs are (arity, rep) names in the summed carrier; a rule answers
        # in Scalars
        total = sum(ar for ar, _ in xs)
        if total > min(fa.operad.cap, parts_cap):
            raise CapExceeded(f"free-algebra theta lands in arity {total}")
        raw = fa.compose([{rep: fa.field.one.val} for _, rep in xs], c_sig, c_name)
        return vec_box({(total, r): c for r, c in
                        fa.part(total, c_sig[1]).project(raw).items()}, fa.field)

    return theta_rule


def free_as_algebra(fa: FreeAlgebra, parts_cap: int | None = None,
                    name: str = "free-algebra") -> Algebra:
    """Bundle the arity parts up to the cap into a verifiable Algebra."""
    cap = fa.operad.cap if parts_cap is None else min(parts_cap, fa.operad.cap)
    carrier = {}
    for srt in fa.operad.sorts:
        degs = {}
        d: dict = {}
        for n in range(0, cap + 1):
            p = fa.part(n, srt)
            for r in p.reps:
                degs[(n, r)] = p.degrees[r]
                col = p.complex.raw_d.get(r)
                if col:
                    d[(n, r)] = {(n, r2): c for r2, c in col.items()}
        if degs:
            carrier[srt] = ChainComplex.from_raw(fa.field, degs, d)
    return Algebra(fa.operad, carrier, monad_theta(fa, cap), name=name)
