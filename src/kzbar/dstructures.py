"""Complexes carrying a splitting map into free-algebra words.

A D-structure is a complex N together with a map delta sending each
basis element to finitely many words x_1 (x) ... (x) x_m (x) c with
factors in N and an operad label c; the pair induces a differential on
the free algebra CN built from the internal differentials, the operad
differential, and delta applied in one slot with the label composed in.
The words, their internal differential and their composition through
a label belong to ``FreeAlgebra``, which alone fixes the Koszul signs
(label last, factors left to right); this module adds only the delta
terms, each a ``compose`` of unit words with one slot's splitting, so
the sign of a split label crossing the later factors is paid there.
The augmented bar construction is the motivating instance: delta cuts
a tree at the root into its successor subtrees tensor the root label,
and the induced differential on the free algebra recovers the quotient
bar differential exactly, which the roundtrip report checks matrix
against matrix.  ``bar_algebra_action`` goes the other way on the
quotient: it joins elements under a new root composed through a label.

Degrees are rigid: delta must lower degree by one, the induced
differential squares to zero on every window (certified at construction
time), and the arity-one inclusion eta satisfies
``Delta . eta = eta . d + delta`` on the nose.

Word vectors hold raw field values, residues mod p or Fractions, as the
operad's tables do.  A D-structure keeps its splitting that way and
computes the induced differential of a word once, on its first read
through ``delta_terms``; the window columns, the split identity, the
morphism checks and both roundtrips read that memo, and a morphism keeps
the image of each word it extends.  Scalars are taken in by the
constructors and handed out only in witnesses and by the bar action.
A window that cannot close is found by a pre-scan of the arities that
can overflow, before any column is built (``build_delta_differential``).
"""

from __future__ import annotations

from itertools import product as iproduct
from typing import NamedTuple

# the word calculus is read through its module at call time, as in
# kzbar.bar, so that the benchmark trace can wrap and restore it
from kzbar import KzbarError, signs
from kzbar.algebras import Algebra, FreeAlgebra, monad_theta
from kzbar.bar import BarComplex, BarError, _is_bare, _key_order
from kzbar.complexes import ChainComplex, ChainMap, QuasiIsoVerdict
from kzbar.linalg import Vec, raw_iaxpy, vec_box, vec_iaxpy
from kzbar.operads import CapExceeded, Operad, OperadElement
from kzbar.trees import assemble, root_blocks, subtree_at, successors

DName = tuple  # (sort, carrier basis name)
BigName = tuple  # ((input sorts, output sort), factor word, label name)
BigVec = dict  # BigName -> raw value


class DStructureError(KzbarError):
    pass


class DStructure:
    """A sorted family of complexes with a degree-lowering splitting map.

    ``carrier`` maps each sort to its complex (a bare ChainComplex means
    the single sort "*").  ``delta`` maps a carrier basis element to a
    finitely supported vector of words ``(sig, factors, label)`` with
    Scalar coefficients; missing entries mean zero.  Every word must
    lower the total degree by one, which is what makes the induced
    differential on the free algebra square to zero together with the
    compatibility the examples verify.

    The splitting is kept on raw values, ``{(sort, x): {word: raw}}``,
    and so is everything the methods take and return.  The induced
    differential of a word is computed once and memoized per word, and
    every reader of it goes through ``delta_terms``.

    ``stable`` optionally lists the degrees on which windowed homology
    readings are faithful; constructors that window an infinite carrier
    use it to pass their own truncation semantics along.
    """

    def __init__(self, operad: Operad, carrier, delta,
                 name: str = "dstructure",
                 stable: list[int] | None = None) -> None:
        if isinstance(carrier, ChainComplex):
            carrier = {"*": carrier}
        self.operad = operad
        self.field = operad.field
        self.carrier: dict[str, ChainComplex] = dict(carrier)
        self.name = name
        self.stable = None if stable is None else sorted(stable)
        for srt, comp in self.carrier.items():
            if srt not in operad.sorts:
                raise DStructureError(f"carrier sort {srt!r} unknown to the operad")
            if comp.field != self.field:
                raise DStructureError(f"carrier of sort {srt!r} over the wrong field")
        self._delta: dict[DName, BigVec] = {}
        raw = self.field.raw
        for key, terms in (delta or {}).items():
            if not (isinstance(key, tuple) and len(key) == 2 and key[0] in self.carrier):
                key = ("*", key)
            srt, x = key
            comp = self.carrier.get(srt)
            if comp is None or x not in comp.degrees:
                raise DStructureError(f"delta given on unknown element {key!r}")
            clean: BigVec = {}
            for big, c in terms.items():
                v = raw(c)
                if v:
                    self._check_word(big)
                    if self._word_degree(big) != comp.degrees[x] - 1:
                        raise DStructureError(
                            f"delta term {big!r} of {key!r} must drop the degree by 1"
                        )
                    clean[big] = v
            if clean:
                self._delta[(srt, x)] = clean
        self._terms: dict[BigName, BigVec] = {}
        self.free = FreeAlgebra(self.carrier, operad)

    # ------------------------------------------------------------- words

    def _check_word(self, big: BigName) -> None:
        sig, xw, c_name = big
        comp = self.operad.component(sig)
        if comp is None or c_name not in comp.degrees:
            raise DStructureError(f"label {c_name!r} not in operad component {sig}")
        if len(xw) != len(sig[0]):
            raise DStructureError(f"word {xw!r} does not fill the slots of {sig}")
        for srt, x in zip(sig[0], xw):
            carrier = self.carrier.get(srt)
            if carrier is None or x not in carrier.degrees:
                raise DStructureError(f"factor {x!r} of sort {srt!r} unknown")

    def _word_degree(self, big: BigName) -> int:
        sig, xw, c_name = big
        total = self.operad.degree_of(sig, c_name)
        for srt, x in zip(sig[0], xw):
            total += self.carrier[srt].degrees[x]
        return total

    def delta_of(self, srt: str, x) -> BigVec:
        return self._delta.get((srt, x), {})

    def unit_word(self, srt: str, x) -> BigVec:
        """x in arity one: the word of x and the unit of its sort."""
        usig, uname = self.operad.unit_label(srt)
        return {(usig, (x,), uname): self.field.one.val}

    # ------------------------------------------------- induced differential

    def delta_terms(self, big: BigName) -> BigVec:
        """The induced differential on one word, computed on its first
        read and memoized; the vector is shared and must only be read."""
        hit = self._terms.get(big)
        if hit is None:
            hit = self._terms[big] = self._induced(big)
        return hit

    def _induced(self, big: BigName) -> BigVec:
        """The free algebra's word differential, plus, for each slot, the
        sign of the degrees to its left times the composition of the unit
        words with the slot's splitting in that slot.
        ``FreeAlgebra.compose`` pays the sign of the split label crossing
        the factors to its right."""
        sig, xw, c_name = big
        free, p = self.free, self.field.p
        units = [self.unit_word(s, x) for s, x in zip(sig[0], xw)]
        out = free.word_d(big)
        sgn = 1
        for i, (srt, x) in enumerate(zip(sig[0], xw)):
            split = self._delta.get((srt, x))
            if split:
                raw_iaxpy(out, sgn, free.compose(units[:i] + [split] + units[i + 1:],
                                                 sig, c_name), p)
            if self.carrier[srt].degrees[x] % 2:
                sgn = -sgn
        return out

    def delta_vec(self, raw: BigVec) -> BigVec:
        """The induced differential of a raw word vector, an exact sum of
        the memoized terms of its words."""
        out: BigVec = {}
        p = self.field.p
        for big, c in raw.items():
            raw_iaxpy(out, c, self.delta_terms(big), p)
        return out

    def project(self, raw: BigVec) -> dict[str, dict]:
        """Coinvariant coordinates of a raw word vector, sort by sort, as
        raw values.

        Keys on the inside are (arity, representative) pairs, matching
        the names the windowed complexes use.
        """
        grouped: dict[tuple[str, int], BigVec] = {}
        for big, c in raw.items():
            sig = big[0]
            grouped.setdefault((sig[1], len(sig[0])), {})[big] = c
        out: dict[str, dict] = {}
        for (srt, n), chunk in grouped.items():
            # a part's classes have its arity, so the parts' columns are
            # disjoint and need no sum
            tgt = out.setdefault(srt, {})
            for rep, c in self.free.part(n, srt).project(chunk).items():
                tgt[(n, rep)] = c
        return {srt: v for srt, v in out.items() if v}


# ---------------------------------------------------------------- windows


class DeltaWindow(NamedTuple):
    """The free algebra on a D-structure, cut at an arity, with its
    induced differential already certified to square to zero."""

    dstructure: DStructure
    n_max: int
    carrier: dict[str, ChainComplex]
    stable: list[int]


def build_delta_differential(ds: DStructure, n_max: int) -> DeltaWindow:
    """Assemble the induced differential on the arity-windowed free algebra.

    An element whose image reaches beyond the window raises; truncating
    silently would manufacture a complex the structure does not have.
    The words are walked sort by sort, in arity order and then in str
    order, and the first word whose induced differential leaves the
    window raises.  Before any column is built, a pre-scan finds that
    word reading only the words that can overflow:

    Let r be the largest arity of a word in any splitting delta(x).  The
    induced differential of a word of arity n has the terms of its word
    differential, of arity n, and one composite per split slot, which
    puts a word of arity a <= r in place of one factor, of arity
    n - 1 + a <= n - 1 + r.  So a word of arity n <= n_max - r + 1 keeps
    every term inside the window, and only arities n >= n_max - r + 2
    can overflow.  No skipped word could have raised first either: when
    n_max <= cap each of its composites lands at arity <= n_max <= cap,
    so the operad raises no CapExceeded, and ``compose`` keeps the output
    sort of the word's label, so no column changes sort.  The pre-scan
    therefore walks those arities alone, in the same order, and raises
    the same error at the same word.  When n_max > cap the argument
    fails, so there is no pre-scan and the columns are built in walk
    order, each raising as it comes.

    A window that closes builds every column, in walk order, from the
    per-word memo.  The returned complexes validate d.d = 0 on
    construction.
    """
    if n_max <= ds.operad.cap:
        reach = max((len(big[1]) for split in ds._delta.values() for big in split),
                    default=0)
        for srt in ds.operad.sorts:
            for n in range(max(n_max - reach + 2, 0), n_max + 1):
                for rep, _ in ds.free.part(n, srt).walk():
                    _check_reach(ds, n_max, srt, (n, rep))
    carrier: dict[str, ChainComplex] = {}
    for srt in ds.operad.sorts:
        degs: dict = {}
        cols: dict = {}
        for n in range(0, n_max + 1):
            for rep, deg in ds.free.part(n, srt).walk():
                degs[(n, rep)] = deg
                col = _window_column(ds, n_max, srt, (n, rep))
                if col:
                    cols[(n, rep)] = col
        carrier[srt] = ChainComplex.from_raw(ds.field, degs, cols)
    return DeltaWindow(ds, n_max, carrier, _stable_for(ds, n_max, carrier))


def _check_reach(ds: DStructure, n_max: int, srt: str, name) -> None:
    """Raise when the induced differential of the window word name =
    (arity, rep) reaches past arity n_max."""
    # projection keeps the arity, so raw terms decide overflow and
    # the big out-of-window parts are never enumerated
    over = sorted({len(b[1]) for b in ds.delta_terms(name[1]) if len(b[1]) > n_max})
    if over:
        raise DStructureError(
            f"window arity {n_max} too small: the differential "
            f"of {name!r} (sort {srt!r}) reaches arity {over[0]}"
        )


def _window_column(ds: DStructure, n_max: int, srt: str, name) -> dict:
    """The induced differential of the window word name = (arity, rep),
    as raw values."""
    _check_reach(ds, n_max, srt, name)
    col: dict = {}
    for tgt_srt, vec in ds.project(ds.delta_terms(name[1])).items():
        if tgt_srt != srt:
            raise DStructureError(
                f"differential of {name!r} changed sort to {tgt_srt!r}"
            )
        col = vec
    return col


def _stable_for(ds: DStructure, n_max: int,
                carrier: dict[str, ChainComplex]) -> list[int]:
    if ds.stable is not None:
        return list(ds.stable)
    bound = ds.operad.arity_bound
    if bound is None or bound > n_max:
        return []
    degs = sorted({k for comp in carrier.values() for k in comp.degrees.values()})
    if not degs:
        return []
    return list(range(degs[0], degs[-1] + 1))


def delta_algebra(ds: DStructure, n_max: int, name: str | None = None) -> Algebra:
    """The windowed free algebra bundled as an algebra over the operad.

    The carrier is the output of build_delta_differential, so the
    differential is the induced one; composition past the window raises
    rather than truncating.
    """
    window = build_delta_differential(ds, n_max)
    return Algebra(ds.operad, window.carrier, monad_theta(ds.free, n_max),
                   name=name or f"free({ds.name})")


# ------------------------------------------------------- inclusion, prime


def eta(ds: DStructure) -> dict[DName, BigVec]:
    """The arity-one inclusion of the carrier into free-algebra words."""
    return {(srt, x): ds.unit_word(srt, x)
            for srt, comp in sorted(ds.carrier.items()) for x in comp.basis()}


def _boxed(ds: DStructure, coords: dict[str, dict]) -> dict[str, Vec]:
    """Coinvariant coordinates from ``project`` as Scalars, for a report."""
    return {srt: vec_box(v, ds.field) for srt, v in coords.items()}


def split_identity_failures(ds: DStructure) -> list[tuple[DName, dict, dict]]:
    """Elementwise check of how far the inclusion is from a chain map.

    The induced differential of an included element must be the included
    internal differential plus the splitting itself, with no extra sign;
    divergences come back as (element, got, wanted) in coinvariant
    coordinates, boxed, and an empty list is the pass verdict.
    """
    inc = eta(ds)
    p = ds.field.p
    bad = []
    for (srt, x), unit_word in sorted(inc.items(), key=lambda kv: str(kv[0])):
        lhs = ds.project(ds.delta_vec(unit_word))
        rhs_raw = dict(ds.delta_of(srt, x))
        for nm, c in ds.carrier[srt].raw_d.get(x, {}).items():
            raw_iaxpy(rhs_raw, c, inc[(srt, nm)], p)
        rhs = ds.project(rhs_raw)
        if lhs != rhs:
            bad.append(((srt, x), _boxed(ds, lhs), _boxed(ds, rhs)))
    return bad


def delta_prime(ds: DStructure, n_max: int) -> dict[str, ChainMap]:
    """The splitting bundled as a verified null-homotopic chain map.

    delta_prime sends x to delta(x) inside the windowed free algebra.
    Constructing it as a ChainMap certifies the degree -1 intertwining
    law; on top of that the inclusion is checked to be an explicit
    null-homotopy, so any failure of either identity raises.
    """
    window = build_delta_differential(ds, n_max)
    out: dict[str, ChainMap] = {}
    for srt, comp in sorted(ds.carrier.items()):
        entries = {x: ds.project(ds.delta_of(srt, x)).get(srt, {})
                   for x in comp.basis()}
        out[srt] = ChainMap.from_raw(comp, window.carrier[srt], entries, degree=-1)
    # the witness (Delta . eta - eta . d)(x) equals delta(x) exactly when
    # the inclusion passes the split identity at x
    bad = split_identity_failures(ds)
    if bad:
        raise DStructureError(f"null-homotopy witness broken at {bad[0][0][1]!r}")
    return out


# ------------------------------------------------------------- bar source


def bar_dstructure(algebra: Algebra, n_max: int,
                   name: str | None = None) -> DStructure:
    """Cut augmented-bar elements at the root to get a D-structure.

    The carrier is the vertex-capped augmented bar complex, sort by
    root sort.  delta strips the root from every tree that has one to
    spare: the successor subtrees become the factors and the root label
    becomes the word's label, signed by shuffling the root's generators
    behind the subtree words and by the degree of the element itself,
    which is what makes the inclusion identity hold on the nose.
    Single-leaf elements split to zero, so each support is the singleton
    root valence.
    """
    B = algebra.bar
    keys = B.enumerate_basis(n_max)
    by_sort: dict[str, list] = {}
    for key in keys:
        t, _ = key
        by_sort.setdefault(B._sort_of(t, t.n), []).append(key)
    carrier = {}
    for srt, group in sorted(by_sort.items()):
        degs = {k: B.degree_of(*k) for k in group}
        cols = {k: B.differential_key(k) for k in group}
        carrier[srt] = ChainComplex.from_raw(B.field, degs, cols)
    delta = {}
    for key in keys:
        if _is_bare(key):
            continue
        srt = B._sort_of(key[0], key[0].n)
        delta[(srt, key)] = _root_split(B, key)
    return DStructure(algebra.operad, carrier, delta,
                      name=name or f"bar({algebra.name})",
                      stable=B.stable_degrees(n_max))


def _root_split(B: BarComplex, key) -> BigVec:
    """One tree cut at the root: factors, label, and the shuffle sign."""
    t, labels = key
    F = B.field
    sig = B._component_sig(t, t.n)
    c_name = labels[t.n - 1]
    c_odd = B.label_degree(t, t.n, c_name) % 2 == 1
    acc = signs.word((), ())
    factors = []
    coeff = F.one.val
    for off, size in root_blocks(t):
        st = subtree_at(t, off, size)
        st_labels = tuple(labels[off + j] for j in range(size))
        w_local = B.basis_word(st, st_labels)
        acc = signs.multiply(acc, signs.relabel(w_local, lambda k: k + off))
        sub = B.normalize_term(st, w_local, st_labels, F.one.val)
        if not sub:
            return {}
        ((k_q, c_q),) = sub.items()
        factors.append(k_q)
        coeff = coeff * c_q
    acc = signs.multiply(acc, signs.word((t.n,), (t.n,) if c_odd else ()))
    base = B.basis_word(t, labels)
    if acc.sign == 0 or acc.es != base.es or acc.fs != base.fs:
        raise DStructureError(f"root split lost generators on {key!r}")
    if (acc.sign == -1) != (B.degree_of(t, labels) % 2 == 1):
        coeff = -coeff
    return {(sig, tuple(factors), c_name): F.scalar(coeff)}


def join_word(B: BarComplex, factors: tuple, c_sig, c_name) -> dict:
    """Graft bar elements under a fresh root; inverse of the root split.

    The factor trees keep all their vertices and become the root's
    successor subtrees; the word puts the new root's generators after
    the factor words, so the shuffle signs match _root_split term for
    term.  The joined key comes with a raw coefficient.
    """
    multi = len(B.operad.sorts) > 1
    trees = [k[0] for k in factors]
    t_new = assemble(trees, c_sig[1] if multi else None)
    labels: list = []
    for k in factors:
        labels.extend(k[1])
    labels.append(c_name)
    c_odd = B.operad.degree_of(c_sig, c_name) % 2 == 1
    acc = signs.word((), ())
    off = 0
    for k in factors:
        t_q, lab_q = k
        w_q = signs.relabel(B.basis_word(t_q, lab_q), lambda v, o=off: v + o)
        acc = signs.multiply(acc, w_q)
        off += t_q.n
    acc = signs.multiply(acc, signs.word((t_new.n,), (t_new.n,) if c_odd else ()))
    return B.normalize_term(t_new, acc, tuple(labels), B.field.one.val)


def bar_algebra_action(B: BarComplex, vs: list, c: OperadElement,
                       n_cap: int | None = None) -> dict:
    """Join elements of B's quotient under a new root composed through c."""
    if not isinstance(c, OperadElement):
        raise BarError("the joining label must be an operad element")
    out: dict = {}
    factor_terms = [sorted(v.items(), key=lambda kv: _key_order(kv[0])) for v in vs]
    for combo in iproduct(*factor_terms):
        coeff = B.field.one
        for _, cf in combo:
            coeff = coeff * cf
        for c_name, cc in sorted(c.vec.items(), key=lambda kv: str(kv[0])):
            vec_iaxpy(out, coeff * cc, _action_basis(
                B, [k for k, _ in combo], c.sig, c_name, n_cap))
    return out


def _action_basis(B: BarComplex, keys: list, c_sig, c_name,
                  n_cap: int | None) -> dict:
    """The join of the basis keys under a root labeled c_name, boxed."""
    m = len(keys)
    for key in keys:
        if _is_bare(key):
            raise BarError("action factors must lie in the quotient")
    n_new = sum(t.n for t, _ in keys) - m + 1
    if n_cap is not None and n_new > n_cap:
        raise CapExceeded(f"joined tree has {n_new} vertices, cap {n_cap}")
    root_sort = c_sig[1] if len(B.operad.sorts) > 1 else None
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

    op = B.operad
    _, merged = op._gamma_ids(op._label_id(c_sig, c_name), tuple(
        op._label_id(B._component_sig(t, t.n), labels[t.n - 1])
        for t, labels in keys))

    c_odd = op.degree_of(c_sig, c_name) % 2 == 1
    w_acc = signs.word((n_new,), (n_new,) if c_odd else ())
    for (t, labels), mapping in zip(keys, maps):
        wq = signs.partial_e(t.n, B.basis_word(t, labels))
        wq = signs.relabel(wq, lambda k: mapping[k])
        w_acc = signs.multiply(w_acc, wq)
        if w_acc.sign == 0:
            return {}

    lab2 = [None] * n_new
    for (t, labels), mapping in zip(keys, maps):
        for v in range(1, t.n):
            lab2[mapping[v] - 1] = labels[v - 1]
    out: dict = {}
    B._place(out, B._plan(t_new), w_acc, lab2, n_new - 1, B._named(merged))
    return B._boxed(out)


# ------------------------------------------------------------- morphisms


class DMorphism:
    """A map of D-structures, recorded by where the carrier basis goes.

    ``f0`` sends each (sort, name) of the source carrier to a word
    vector over the target with Scalar coefficients; the degree must be
    preserved.  It is kept on raw values, as ``from_raw`` takes it.  The
    induced map on free algebras multiplies the images out slot by slot
    and composes the labels, once per word, and is a morphism exactly
    when it intertwines the induced differentials, which verify_morphism
    checks.
    """

    __slots__ = ("source", "target", "f0", "name", "_images")

    def __init__(self, source: DStructure, target: DStructure,
                 f0: dict[DName, Vec], name: str = "morphism") -> None:
        raw = target.field.raw
        self._setup(source, target, {k: {big: raw(c) for big, c in vec.items()}
                                     for k, vec in f0.items()}, name)

    @classmethod
    def from_raw(cls, source: DStructure, target: DStructure,
                 f0: dict[DName, BigVec], name: str = "morphism") -> "DMorphism":
        m = cls.__new__(cls)
        m._setup(source, target, f0, name)
        return m

    def _setup(self, source, target, f0: dict[DName, BigVec], name: str) -> None:
        clean = {}
        for (srt, x), vec in f0.items():
            comp = source.carrier.get(srt)
            if comp is None or x not in comp.degrees:
                raise DStructureError(f"f0 given on unknown element {(srt, x)!r}")
            for big, c in vec.items():
                target._check_word(big)
                if c and target._word_degree(big) != comp.degrees[x]:
                    raise DStructureError(f"f0 must preserve degree at {(srt, x)!r}")
            clean[(srt, x)] = {big: c for big, c in vec.items() if c}
        self.source = source
        self.target = target
        self.f0 = clean
        self.name = name
        self._images: dict[BigName, BigVec] = {}


def extend_morphism(m: DMorphism, raw: BigVec) -> BigVec:
    """The induced free-algebra map applied to a raw word vector, an
    exact sum of the images of its words, each memoized on m."""
    out: BigVec = {}
    images, f0, p = m._images, m.f0, m.target.field.p
    for big, c in raw.items():
        img = images.get(big)
        if img is None:
            sig, xw, c_name = big
            img = images[big] = m.target.free.compose(
                [f0.get(key, {}) for key in zip(sig[0], xw)], sig, c_name)
        raw_iaxpy(out, c, img, p)
    return out


def identity_morphism(ds: DStructure) -> DMorphism:
    return DMorphism.from_raw(ds, ds, eta(ds), name=f"id({ds.name})")


def compose_morphisms(g: DMorphism, f: DMorphism) -> DMorphism:
    """g after f; the composite's basis images are g's extension of f's."""
    if f.target is not g.source:
        raise DStructureError("composition needs matching middle structures")
    f0 = {}
    for key, vec in f.f0.items():
        img = extend_morphism(g, vec)
        if img:
            f0[key] = img
    return DMorphism.from_raw(f.source, g.target, f0, name=f"{g.name}.{f.name}")


class MorphismReport(NamedTuple):
    ok: bool
    checked: int
    first_divergence: tuple | None = None


def verify_morphism(m: DMorphism, window: int = 2) -> MorphismReport:
    """Check that the induced map intertwines the two differentials.

    Runs over every carrier basis element through the inclusion, then
    over the windowed word representatives up to the given arity; the
    first divergence is reported as (element, got, wanted) in the
    target's coinvariant coordinates.
    """
    src, tgt = m.source, m.target
    checked = 0
    jobs: list[tuple[object, BigVec]] = []
    for (srt, x), unit_word in sorted(eta(src).items(), key=lambda kv: str(kv[0])):
        jobs.append(((srt, x), unit_word))
    for srt in src.operad.sorts:
        for n in range(0, window + 1):
            for rep in src.free.part(n, srt).reps:
                jobs.append((("word", srt, n, rep), {rep: src.field.one.val}))
    for label, raw in jobs:
        lhs = tgt.project(extend_morphism(m, src.delta_vec(raw)))
        rhs = tgt.project(tgt.delta_vec(extend_morphism(m, raw)))
        checked += 1
        if lhs != rhs:
            return MorphismReport(False, checked,
                                  (label, _boxed(tgt, lhs), _boxed(tgt, rhs)))
    return MorphismReport(True, checked)


class EquivalenceReport(NamedTuple):
    equivalence: bool
    stable_degrees: list[int]
    verdicts: dict[tuple[str, int], QuasiIsoVerdict]
    note: str = ""


def is_equivalence(m: DMorphism, n_max: int) -> EquivalenceReport:
    """Quasi-isomorphism verdict for the induced map on windowed free
    algebras, restricted to the degrees both windows report faithfully."""
    sw = build_delta_differential(m.source, n_max)
    tw = build_delta_differential(m.target, n_max)
    stable = sorted(set(sw.stable) & set(tw.stable))
    verdicts: dict[tuple[str, int], QuasiIsoVerdict] = {}
    ok = True
    for srt in m.source.operad.sorts:
        entries: dict = {}
        for name in sw.carrier[srt].basis():
            raw = extend_morphism(m, {name[1]: m.source.field.one.val})
            col = m.target.project(raw).get(srt, {})
            entries[name] = {nm: c for nm, c in col.items()
                             if nm in tw.carrier[srt].degrees}
        cm = ChainMap.from_raw(sw.carrier[srt], tw.carrier[srt], entries)
        for deg, verdict in cm.is_quasi_iso(stable).items():
            verdicts[(srt, deg)] = verdict
            ok = ok and verdict.isomorphism
    note = "" if stable else (
        "no stable degrees at this window; the homology verdict is vacuous"
    )
    return EquivalenceReport(ok, stable, verdicts, note)


# ------------------------------------------------------------- roundtrips


class RoundtripAlgebraReport(NamedTuple):
    """Windowed certificate that the free algebra on the root-split bar
    coincides with the quotient bar construction."""

    basis_matched: bool
    dimension: int
    matrices_equal: bool
    first_divergence: tuple | None
    evaluation: dict[int, QuasiIsoVerdict]
    stable_degrees: list[int]
    note: str = ""


def roundtrip_algebra(algebra: Algebra, n_max: int) -> RoundtripAlgebraReport:
    """Rebuild the quotient bar complex out of the bar D-structure.

    The coinvariant word basis is grafted back into trees and compared
    with the quotient basis one to one; the induced differential is then
    pushed across the same identification and compared with the quotient
    differential entry for entry.  Evaluation closes the loop as a
    quasi-isomorphism on the stable degrees.
    """
    B = algebra.bar
    # factors of a word that joins into the window have at most n_max - 1
    # vertices between them, so the smaller carrier sees every word
    ds = bar_dstructure(algebra, n_max - 1)
    quotient = B.bar_quotient(n_max)
    targets = set(quotient.degrees)

    matched: dict = {}
    basis_ok = True
    for srt in algebra.operad.sorts:
        for n in range(0, n_max):
            for rep in ds.free.part(n, srt).reps:
                sig, xw, c_name = rep
                if 1 + sum(k[0].n for k in xw) > n_max:
                    continue
                joined = join_word(B, xw, sig, c_name)
                if len(joined) != 1:
                    basis_ok = False
                    continue
                ((key, sgn),) = joined.items()
                if key in matched or key not in targets:
                    basis_ok = False
                    continue
                matched[key] = (rep, sgn)
    basis_ok = basis_ok and set(matched) == targets

    matrices_equal = True
    first = None
    p = B.field.p
    for key in quotient.basis():
        rep, sgn = matched[key]
        pushed: dict = {}
        for (sig2, xw2, c2), c in ds.delta_terms(rep).items():
            raw_iaxpy(pushed, c, join_word(B, xw2, sig2, c2), p)
        if sgn != 1:
            inv = pow(sgn, -1, p) if p else 1 / sgn
            pushed = {k: c * inv % p if p else c * inv for k, c in pushed.items()}
        want = quotient.raw_d.get(key, {})
        if pushed != want and first is None:
            matrices_equal = False
            first = (key, vec_box(pushed, B.field), vec_box(want, B.field))

    stable = B.stable_degrees(n_max)
    verdicts = B.mu_chain_map(quotient).is_quasi_iso(stable)
    note = "" if stable else (
        "no stable degrees at this window; the homology verdict is vacuous"
    )
    return RoundtripAlgebraReport(basis_ok, len(matched), matrices_equal,
                                  first, verdicts, stable, note)


class RoundtripDStructureReport(NamedTuple):
    """Windowed certificate for the other composite: the bar construction
    of the windowed free algebra evaluates back onto it."""

    counit: MorphismReport
    equivalence: EquivalenceReport | None
    evaluation: dict[int, QuasiIsoVerdict]
    stable_degrees: list[int]
    conclusion: str = ""


def roundtrip_dstructure(ds: DStructure, n_max: int,
                         bar_cap: int) -> RoundtripDStructureReport:
    """Bar the windowed free algebra and evaluate back down.

    The counit flattens a bare tree to the word its label names and
    kills every tree with a vertex to contract; the induced map then
    composes bare labels through the root, which is where the one-level
    evaluation reappears.  The counit is verified to intertwine the
    differentials, evaluation is certified a quasi-isomorphism on the
    stable window, and when the arity window is closed under splitting
    the counit's own homology verdict runs through the equivalence
    machinery as well.
    """
    algebra = delta_algebra(ds, n_max)
    B = algebra.bar
    quotient = B.bar_quotient(bar_cap)
    stable = B.stable_degrees(bar_cap)
    verdicts = B.mu_chain_map(quotient).is_quasi_iso(stable)

    source = bar_dstructure(algebra, bar_cap)
    f0: dict[DName, BigVec] = {}
    for (srt, key) in sorted(eta(source), key=str):
        if _is_bare(key):
            _, rep = key[1][0]
            f0[(srt, key)] = {rep: ds.field.one.val}
    counit = DMorphism.from_raw(source, ds, f0, name=f"counit({ds.name})")
    counit_report = verify_morphism(counit, window=1)

    bound = ds.operad.arity_bound
    equivalence = None
    if bound is not None and bound <= 1:
        equivalence = is_equivalence(counit, n_max)
    conclusion = (
        "windowed evidence that the two constructions invert each other "
        "up to quasi-isomorphism"
    )
    return RoundtripDStructureReport(counit_report, equivalence, verdicts,
                                     stable, conclusion)


__all__ = [
    "BigName",
    "BigVec",
    "DMorphism",
    "DName",
    "DStructure",
    "DStructureError",
    "DeltaWindow",
    "EquivalenceReport",
    "MorphismReport",
    "RoundtripAlgebraReport",
    "RoundtripDStructureReport",
    "bar_algebra_action",
    "bar_dstructure",
    "build_delta_differential",
    "compose_morphisms",
    "delta_algebra",
    "delta_prime",
    "eta",
    "extend_morphism",
    "identity_morphism",
    "is_equivalence",
    "join_word",
    "roundtrip_algebra",
    "roundtrip_dstructure",
    "split_identity_failures",
    "verify_morphism",
]
