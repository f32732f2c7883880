"""Unital DG operads presented by basis, single- or multi-sorted.

A component is indexed by its signature (input sorts, output sort); the
single-sorted case uses the sort "*" throughout. Composition gamma is a
rule on basis tuples extended multilinearly, symmetric group actions are
stored on adjacent transpositions and composed on demand.

Conventions, fixed once and verified by verify_operad:
  - basis words of the associative family are tuples w meaning the
    operation (a_1..a_n) -> a_{w_1} a_{w_2} ... ; sigma acts by sigma o w;
  - equivariance: gamma(swapped xs; s_k . y) equals the block permutation
    of gamma(xs; y) times the Koszul sign of swapping the two x's.
"""

from __future__ import annotations

from functools import cache
from itertools import product as iproduct
from math import factorial

from kzbar import KzbarError
from kzbar.complexes import ChainComplex
from kzbar.fields import FieldSpec, Scalar
from kzbar.linalg import Vec, raw_iaxpy, vec_axpy, vec_iaxpy, vec_scale

Sig = tuple[tuple[str, ...], str]  # (input sorts, output sort)
Label = tuple[Sig, object]  # (signature, basis name)


class OperadError(KzbarError):
    pass


class CapExceeded(OperadError):
    pass


def single_sig(n: int) -> Sig:
    return (("*",) * n, "*")


def adjacent_word(sigma: tuple[int, ...]) -> list[int]:
    """Write sigma as s_{w_r} o ... o s_{w_1}; apply the list in order."""
    arr = list(sigma)
    word = []
    changed = True
    while changed:
        changed = False
        for k in range(len(arr) - 1):
            if arr[k] > arr[k + 1]:
                arr[k], arr[k + 1] = arr[k + 1], arr[k]
                word.append(k + 1)
                changed = True
    return word


def block_perm(sigma: tuple[int, ...], arities: list[int]) -> tuple[int, ...]:
    """The permutation moving block i (size arities[i-1]) as sigma moves i."""
    k = len(arities)
    offsets = [0] * (k + 1)
    for i in range(k):
        offsets[i + 1] = offsets[i] + arities[i]
    new_offset = [0] * k
    for i in range(1, k + 1):
        new_offset[i - 1] = sum(arities[j - 1] for j in range(1, k + 1) if sigma[j - 1] < sigma[i - 1])
    out = [0] * offsets[k]
    for i in range(1, k + 1):
        for r in range(1, arities[i - 1] + 1):
            out[offsets[i - 1] + r - 1] = new_offset[i - 1] + r
    return tuple(out)


class LabelOrbits:
    """The Sigma_n-orbits on the labels of one arity, walked once.

    members[label] = (root, sign, sigma): the group element g that the
    walk took from root to label has g . root = sign * label, sign = +1
    or -1 as an int, and g moves input position i of root to position
    sigma[i] (0-based).  sizes maps each finished orbit's root to its
    size, in walk order.  fault names the first non-monomial, non-unit
    or sign-inconsistent step; the walk stops there, and the orbit it
    was in appears in neither mapping.
    """

    __slots__ = ("members", "sizes", "fault")

    def __init__(self) -> None:
        self.members: dict[Label, tuple[Label, int, tuple[int, ...]]] = {}
        self.sizes: dict[Label, int] = {}
        self.fault: str | None = None

    def size_faults(self, n: int) -> list[str]:
        """One line per finished orbit of arity n whose size is not n!,
        the size of a free orbit."""
        want = factorial(n)
        return [f"orbit of {sig}:{name!r} has size {size}, want {want}"
                for (sig, name), size in self.sizes.items() if size != want]


class OperadElement:
    __slots__ = ("operad", "sig", "vec")

    def __init__(self, operad: Operad, sig: Sig, vec: Vec) -> None:
        self.operad = operad
        self.sig = sig
        self.vec = vec  # basis name -> Scalar

    @property
    def arity(self) -> int:
        return len(self.sig[0])

    def is_zero(self) -> bool:
        return not self.vec

    def homogeneous_parts(self) -> dict[int, "OperadElement"]:
        comp = self.operad.components[self.sig]
        parts: dict[int, Vec] = {}
        for name, c in self.vec.items():
            parts.setdefault(comp.degrees[name], {})[name] = c
        return {k: OperadElement(self.operad, self.sig, v) for k, v in parts.items()}

    def __add__(self, other: "OperadElement") -> "OperadElement":
        if self.sig != other.sig:
            raise OperadError("cannot add elements of different signatures")
        return OperadElement(self.operad, self.sig, vec_axpy(self.vec, self.operad.field.one, other.vec))

    def scale(self, s: Scalar) -> "OperadElement":
        return OperadElement(self.operad, self.sig, vec_scale(self.vec, s))


class Operad:
    """Basis-presented operad; immutable once built, verify before trusting.

    gamma_rule(y_sig, y_name, xs) -> Vec over the target component, where
    xs is a tuple of (sig, basis name) pairs matching y's input sorts.
    sym_rule(sig, k, name) -> Vec over the component with inputs k, k+1
    swapped (the target signature is determined by sig and k).

    The structure constants live in one table, ``_gamma_memo``, filled
    from gamma_rule on first read.  Every label (sig, name) of a component
    is interned to an int id at construction, and the table maps
    (y id, x ids) to (target sig, {target id: raw value}), a raw value
    being a residue mod p or a Fraction.  The field of each coefficient
    gamma_rule returns is checked once, when its entry is filled.  Inner
    layers compose basis labels through ``gamma_basis``; the element API
    (``basis_element``, ``gamma``, ``gamma_j``) unboxes and boxes at the
    public edge only.
    """

    def __init__(
        self,
        field: FieldSpec,
        sorts: tuple[str, ...],
        cap: int,
        components: dict[Sig, ChainComplex],
        unit_names: dict[str, object],
        gamma_rule,
        sym_rule,
        certificate: str,
        name: str = "operad",
        arity_bound: int | None = None,
    ) -> None:
        if certificate not in ("char0", "free-module", "asserted"):
            raise OperadError(f"unknown certificate kind {certificate!r}")
        if certificate == "char0" and field.kind != "Q":
            raise OperadError(
                f"certificate char0 requires characteristic 0, got {field}"
            )
        self.field = field
        self.sorts = sorts
        self.cap = cap
        self.components = {sig: c for sig, c in components.items() if c.degrees}
        self.unit_names = dict(unit_names)
        self._gamma_rule = gamma_rule
        self._sym_rule = sym_rule
        self.certificate = certificate
        self.name = name
        # None: the operad may be nonzero in arities beyond the cap, so the
        # materialised components are a window, not the whole thing.
        self.arity_bound = arity_bound
        self._signatures = tuple(sorted(self.components, key=str))
        # id -> label and back; a label's id is its place in signature order
        self._labels: list[Label] = [(sig, name) for sig in self._signatures
                                     for name in self.components[sig].degrees]
        self._ids: dict[Label, int] = {lab: i for i, lab in enumerate(self._labels)}
        self._degs: list[int] = [self.components[sig].degrees[name]
                                 for sig, name in self._labels]
        self._gamma_memo: dict = {}
        self._perm_memo: dict = {}
        self._orbit_memo: dict[int, LabelOrbits] = {}
        self._tuple_memo: dict = {}
        for sig, comp in self.components.items():
            if comp.field != field:
                raise OperadError(f"component {sig} over wrong field")
            if len(sig[0]) > cap:
                raise OperadError(f"component {sig} exceeds arity cap {cap}")
        for srt, uname in self.unit_names.items():
            usig = ((srt,), srt)
            comp = self.components.get(usig)
            if comp is None or uname not in comp.degrees:
                raise OperadError(f"unit of sort {srt!r} missing from {usig}")
            if comp.degrees[uname] != 0 or comp.raw_d.get(uname):
                raise OperadError(f"unit of sort {srt!r} is not a degree-0 cycle")

    # -------------------------------------------------------------- access

    def component(self, sig: Sig) -> ChainComplex | None:
        return self.components.get(sig)

    def dim(self, sig: Sig) -> int:
        c = self.components.get(sig)
        return len(c.degrees) if c else 0

    def degree_of(self, sig: Sig, name) -> int:
        return self.components[sig].degrees[name]

    def unit_label(self, sort: str = "*") -> Label:
        return ((sort,), sort), self.unit_names[sort]

    def unit(self, sort: str = "*") -> OperadElement:
        sig, uname = self.unit_label(sort)
        return OperadElement(self, sig, {uname: self.field.one})

    def basis_element(self, sig: Sig, name) -> OperadElement:
        if name not in self.components[sig].degrees:
            raise OperadError(f"{name!r} is not a basis name of {sig}")
        return OperadElement(self, sig, {name: self.field.one})

    def zero(self, sig: Sig) -> OperadElement:
        return OperadElement(self, sig, {})

    def signatures(self) -> tuple[Sig, ...]:
        """The component signatures in str order, sorted once: the
        components are fixed after construction."""
        return self._signatures

    # -------------------------------------------------------------- gamma

    def _label_id(self, sig: Sig, name) -> int:
        i = self._ids.get((sig, name))
        if i is None:
            raise OperadError(f"{name!r} is not a basis name of {sig}")
        return i

    def _unbox(self, sig: Sig, vec: Vec) -> dict:
        """vec over component sig as {label id: raw}, each coefficient's
        field checked."""
        ids, raw = self._ids, self.field.raw
        out = {}
        for name, c in vec.items():
            i = ids.get((sig, name))
            out[self._label_id(sig, name) if i is None else i] = raw(c)
        return out

    def _box(self, raw: dict) -> Vec:
        F, labels = self.field, self._labels
        return {labels[i][1]: Scalar(F, v) for i, v in raw.items()}

    def _gamma_ids(self, y: int, xs: tuple) -> tuple[Sig, dict]:
        """The table entry of gamma(xs; y) on label ids.  A miss checks the
        sorts and arity, is zero past a declared arity bound and raises
        CapExceeded past the cap otherwise, since the components there are
        not materialised; that is never memoized.  Below the cap it reads
        gamma_rule and checks the field of every coefficient."""
        key = (y, xs)
        hit = self._gamma_memo.get(key)
        if hit is not None:
            return hit
        y_sig, y_name = self._labels[y]
        yins, yout = y_sig
        x_labels = tuple(self._labels[x] for x in xs)
        if len(xs) != len(yins):
            raise OperadError(f"gamma arity mismatch: {len(xs)} inputs for {y_sig}")
        for (x_sig, _), want in zip(x_labels, yins):
            if x_sig[1] != want:
                raise OperadError(f"sort mismatch: {x_sig[1]!r} fed into {want!r} slot")
        target_inputs = tuple(s for (x_sig, _) in x_labels for s in x_sig[0])
        target_sig = (target_inputs, yout)
        if self.arity_bound is not None and len(target_inputs) > self.arity_bound:
            hit = (target_sig, {})
        elif len(target_inputs) > self.cap:
            raise CapExceeded(
                f"gamma result arity {len(target_inputs)} exceeds cap {self.cap}"
            )
        else:
            raw, out = self.field.raw, {}
            for name, c in self._gamma_rule(y_sig, y_name, x_labels).items():
                v = raw(c)
                if v:
                    out[self._label_id(target_sig, name)] = v
            hit = (target_sig, out)
        self._gamma_memo[key] = hit
        return hit

    def _gamma_raw(self, y_vec: dict, xs: list[dict]) -> dict:
        """gamma(x_1,...,x_k; y) on raw vectors over label ids, multilinear
        in everything, read off the table; a fresh vector."""
        p = self.field.p
        memo = self._gamma_memo
        if len(y_vec) == 1 and all(len(x) == 1 for x in xs):
            # one term in every input, as on every associativity triple
            # of uAss: one table read, scaled once
            ((y, coeff),) = y_vec.items()
            key = []
            for ((x, cx),) in (x.items() for x in xs):
                key.append(x)
                if cx != 1:
                    coeff = coeff * cx % p if p else coeff * cx
            comp = (memo.get((y, tuple(key))) or self._gamma_ids(y, tuple(key)))[1]
            if coeff == 1:
                return dict(comp)
            target = {}
            raw_iaxpy(target, coeff, comp, p)
            return target
        target: dict = {}
        for y, cy in y_vec.items():
            for combo in iproduct(*(x.items() for x in xs)):
                coeff = cy
                for _, cx in combo:
                    if cx != 1:
                        coeff = coeff * cx % p if p else coeff * cx
                key = (y, tuple(x for x, _ in combo))
                hit = memo.get(key) or self._gamma_ids(*key)
                raw_iaxpy(target, coeff, hit[1], p)
        return target

    def gamma_basis(self, y_sig: Sig, y_name, xs: tuple) -> tuple[Sig, Vec]:
        """Structure constants on a basis tuple; xs = ((sig, name), ...).
        A boxed reader of the table: returns the target signature with a
        fresh vector of Scalars.  An unknown label raises OperadError; a
        miss is checked and filled as ``_gamma_ids`` says, so it is zero
        past a declared arity bound and raises CapExceeded past the cap."""
        sig, raw = self._gamma_ids(self._label_id(y_sig, y_name),
                                   tuple(self._label_id(*x) for x in xs))
        return sig, self._box(raw)

    def gamma(self, xs: list[OperadElement], y: OperadElement) -> OperadElement:
        """Full composition gamma(x_1,...,x_k; y), multilinear in everything.
        The inputs are unboxed once, every coefficient's field checked."""
        raw = self._gamma_raw(self._unbox(y.sig, y.vec),
                              [self._unbox(x.sig, x.vec) for x in xs])
        sig = (tuple(s for x in xs for s in x.sig[0]), y.sig[1])
        return OperadElement(self, sig, self._box(raw))

    def gamma_j(self, j: int, x: OperadElement, y: OperadElement) -> OperadElement:
        """Partial composition: x into slot j of y, units elsewhere."""
        yins, _ = y.sig
        n = len(yins)
        if not 1 <= j <= n:
            raise OperadError(f"slot {j} out of range for arity {n}")
        if x.sig[1] != yins[j - 1]:
            raise OperadError(f"sort mismatch at slot {j}")
        xs = [self.unit(s) for s in yins[:j - 1]] + [x] + [self.unit(s) for s in yins[j:]]
        return self.gamma(xs, y)

    # -------------------------------------------------------------- symmetry

    def swap_sig(self, sig: Sig, k: int) -> Sig:
        ins, out = sig
        lst = list(ins)
        lst[k - 1], lst[k] = lst[k], lst[k - 1]
        return (tuple(lst), out)

    def apply_transposition(self, sig: Sig, k: int, vec: Vec) -> tuple[Sig, Vec]:
        out_sig = self.swap_sig(sig, k)
        out: Vec = {}
        for name, c in vec.items():
            vec_iaxpy(out, c, self._sym_rule(sig, k, name))
        return out_sig, out

    def apply_perm(self, el: OperadElement, sigma: tuple[int, ...]) -> OperadElement:
        """Left action of sigma on el; (sigma rho) . x = sigma . (rho . x)."""
        n = el.arity
        if sorted(sigma) != list(range(1, n + 1)):
            raise OperadError(f"{sigma} is not a permutation of 1..{n}")
        word = adjacent_word(sigma)
        sig, vec = el.sig, el.vec
        for k in word:
            sig, vec = self.apply_transposition(sig, k, vec)
        return OperadElement(self, sig, vec)

    def perm_matrix(self, sig: Sig, sigma: tuple[int, ...]):
        """Memoized basis-level action: name -> (target sig, Vec)."""
        key = (sig, sigma)
        hit = self._perm_memo.get(key)
        if hit is not None:
            return hit
        word = adjacent_word(sigma)
        out = {}
        for name in self.components[sig].degrees:
            tsig, vec = sig, {name: self.field.one}
            for k in word:
                tsig, vec = self.apply_transposition(tsig, k, vec)
            out[name] = (tsig, vec)
        self._perm_memo[key] = out
        return out

    def label_orbits(self, n: int) -> LabelOrbits:
        """Memoized orbit walk over the labels (sig, name) of arity n.

        One breadth-first pass costs dim O(n) * (n - 1) transpositions;
        the free-module certificate and the coinvariant parts of free
        algebras both read it.
        """
        hit = self._orbit_memo.get(n)
        if hit is None:
            hit = self._orbit_memo[n] = self._walk_label_orbits(n)
        return hit

    def _walk_label_orbits(self, n: int) -> LabelOrbits:
        one, minus_one = self.field.one, -self.field.one
        walk = LabelOrbits()
        for sig in self.arity_signatures(n):
            for name in self.components[sig].basis():
                root = (sig, name)
                if root in walk.members:
                    continue
                found = {root: (root, 1, tuple(range(n)))}
                frontier = [root]
                while frontier:
                    cur = frontier.pop()
                    _, sign, sigma = found[cur]
                    for k in range(1, n):
                        tsig, tvec = self.apply_transposition(cur[0], k, {cur[1]: one})
                        if len(tvec) != 1:
                            walk.fault = f"non-monomial action at {cur[0]}:{cur[1]!r}"
                            return walk
                        (tname, tcoef), = tvec.items()
                        if tcoef != one and tcoef != minus_one:
                            walk.fault = f"non-unit coefficient at {cur[0]}:{cur[1]!r}"
                            return walk
                        tsign = sign if tcoef == one else -sign
                        prev = found.get((tsig, tname))
                        if prev is None:
                            tsigma = tuple(k if v == k - 1 else k - 1 if v == k else v
                                           for v in sigma)
                            found[(tsig, tname)] = (root, tsign, tsigma)
                            frontier.append((tsig, tname))
                        elif prev[1] != tsign:
                            walk.fault = f"sign torsion in orbit of {sig}:{name!r} arity {n}"
                            return walk
                walk.members.update(found)
                walk.sizes[root] = len(found)
        return walk

    # -------------------------------------------------------------- misc

    def arity_signatures(self, n: int) -> list[Sig]:
        return [sig for sig in self._signatures if len(sig[0]) == n]

    def d_element(self, el: OperadElement) -> OperadElement:
        comp = self.components[el.sig]
        return OperadElement(self, el.sig, comp.apply_d(el.vec))


# ------------------------------------------------------------------ report


class OperadReport:
    __slots__ = ("operad", "failures", "checks_run", "certificate_note")

    def __init__(self, operad: str) -> None:
        self.operad = operad
        self.failures: list[str] = []
        self.checks_run = 0
        self.certificate_note = ""

    @property
    def ok(self) -> bool:
        return not self.failures


def koszul_sign(field: FieldSpec, deg_a: int, deg_b: int) -> Scalar:
    """Sign of moving a degree-deg_a element past a degree-deg_b one."""
    return -field.one if (deg_a % 2 and deg_b % 2) else field.one


def _past_parity(degs) -> int:
    """1 when moving each factor's label right, past the factor words
    after it, costs a Koszul sign, else 0; degs holds (label degree, word
    degree) per factor."""
    odd, later = 0, 0
    for c_deg, w_deg in reversed(degs):
        if c_deg % 2 and later % 2:
            odd ^= 1
        later += w_deg
    return odd


def _raw_neg(v: dict, p: int | None) -> dict:
    out: dict = {}
    raw_iaxpy(out, -1, v, p)
    return out


def _raw_tables(op: Operad):
    """The transposition s_k . label and the differential d(label) on
    label ids, as raw vectors, each read once per verifier run."""
    one, labels = op.field.one, op._labels

    @cache
    def swap(i: int, k: int) -> dict:
        sig, name = labels[i]
        return op._unbox(*op.apply_transposition(sig, k, {name: one}))

    @cache
    def d(i: int) -> dict:
        sig, name = labels[i]
        return {op._label_id(sig, nm): c
                for nm, c in op.components[sig].raw_d.get(name, {}).items()}

    return swap, d


def _arity_tuples(op: Operad, total_max: int, slots_sorts: tuple[str, ...]) -> tuple:
    """All tuples of label ids matching the sorts, with total resulting
    arity at most total_max, each paired with that arity; memoized per
    operad."""
    key = (total_max, slots_sorts)
    hit = op._tuple_memo.get(key)
    if hit is not None:
        return hit
    if not slots_sorts:
        hit = (((), 0),)
    else:
        first, rest = slots_sorts[0], slots_sorts[1:]
        out = []
        for sig in op.signatures():
            a = len(sig[0])
            if sig[1] != first or a > total_max:
                continue
            ids = [op._ids[(sig, name)] for name in op.components[sig].basis()]
            for tail, tail_a in _arity_tuples(op, total_max - a, rest):
                out.extend(((i,) + tail, a + tail_a) for i in ids)
        hit = tuple(out)
    op._tuple_memo[key] = hit
    return hit


def verify_operad(op: Operad) -> OperadReport:
    """Exhaustive axiom check on basis tuples within the arity cap, run on
    the structure-constant table: labels are ids and coefficients raw
    values, and an id is named only to format a failure.  Two sides are
    compared as vectors over label ids, which carry their signatures."""
    rep = OperadReport(operad=op.name)
    F = op.field
    p, one = F.p, F.one.val
    ids, labels, memo = op._ids, op._labels, op._gamma_memo
    deg = op._degs
    swap, d = _raw_tables(op)

    def act(vec: dict, ks) -> dict:
        """s_{k_r} ... s_{k_1} . vec for ks = (k_1, ..., k_r)."""
        for k in ks:
            out: dict = {}
            for i, c in vec.items():
                raw_iaxpy(out, c, swap(i, k), p)
            vec = out
        return vec

    def names(xs) -> list:
        return [labels[x][1] for x in xs]

    # symmetric group relations on every component
    for sig in op.signatures():
        n = len(sig[0])
        for name in op.components[sig].basis():
            base = {ids[(sig, name)]: one}
            for k in range(1, n):
                rep.checks_run += 1
                if act(base, (k, k)) != base:
                    rep.failures.append(f"{sig} s_{k}^2 != id at {name!r}")
            for k in range(1, n - 1):
                rep.checks_run += 1
                if act(base, (k, k + 1, k)) != act(base, (k + 1, k, k + 1)):
                    rep.failures.append(f"{sig} braid s_{k} s_{k+1} s_{k} fails at {name!r}")
            for k in range(1, n):
                for j in range(k + 2, n):
                    rep.checks_run += 1
                    if act(base, (k, j)) != act(base, (j, k)):
                        rep.failures.append(f"{sig} s_{k} s_{j} commute fails at {name!r}")

    # unit laws
    unit = {s: ids[(((s,), s), u)] for s, u in op.unit_names.items()}
    for sig in op.signatures():
        ins, out = sig
        for name in op.components[sig].basis():
            x = ids[(sig, name)]
            base = {x: one}
            rep.checks_run += 1
            if op._gamma_ids(unit[out], (x,))[1] != base:
                rep.failures.append(f"gamma(x; 1) != x at {sig} {name!r}")
            if all(s in unit for s in ins):
                rep.checks_run += 1
                if op._gamma_ids(x, tuple(unit[s] for s in ins))[1] != base:
                    rep.failures.append(f"gamma(1..1; y) != y at {sig} {name!r}")

    # equivariance on adjacent transpositions: gamma(swapped xs; s_k . y)
    # against the block permutation of gamma(xs; y), times the Koszul
    # sign of swapping the two x's
    perm = cache(lambda t, beta: act({t: one}, adjacent_word(beta)))
    for y_sig in op.signatures():
        k_ar = len(y_sig[0])
        if k_ar < 2:
            continue
        for y_name in op.components[y_sig].basis():
            y = ids[(y_sig, y_name)]
            for xs, _ in _arity_tuples(op, op.cap, y_sig[0]):
                arities = [len(labels[x][0][0]) for x in xs]
                plain = op._gamma_ids(y, xs)[1]
                for k in range(1, k_ar):
                    swapped = xs[:k - 1] + (xs[k], xs[k - 1]) + xs[k + 1:]
                    lhs: dict = {}
                    for j, c in swap(y, k).items():
                        raw_iaxpy(lhs, c, op._gamma_ids(j, swapped)[1], p)
                    sigma = list(range(1, k_ar + 1))
                    sigma[k - 1], sigma[k] = sigma[k], sigma[k - 1]
                    beta = block_perm(tuple(sigma), arities)
                    rhs: dict = {}
                    for t, c in plain.items():
                        raw_iaxpy(rhs, c, perm(t, beta), p)
                    if deg[xs[k - 1]] % 2 and deg[xs[k]] % 2:
                        rhs = _raw_neg(rhs, p)
                    rep.checks_run += 1
                    if lhs != rhs:
                        rep.failures.append(
                            f"equivariance fails: y={y_sig}:{y_name!r} xs={names(xs)} s_{k}"
                        )

    # associativity: gamma(zs; gamma(xs; y)) against gamma(gamma(block_i;
    # x_i)...; y), up to the Koszul sign of moving each x_i right past the
    # later blocks.  Every (y, xs, zs) is compared; each composition is a
    # table read.
    for y_sig in op.signatures():
        for y_name in op.components[y_sig].basis():
            y = ids[(y_sig, y_name)]
            y_vec = {y: one}
            for xs, _ in _arity_tuples(op, op.cap, y_sig[0]):
                mid_sig, mid = op._gamma_ids(y, xs)
                cuts, pos = [], 0
                for x in xs:
                    w = len(labels[x][0][0])
                    cuts.append((x, pos, pos + w))
                    pos += w
                any_odd = any(deg[x] % 2 for x in xs)
                for zs, _ in _arity_tuples(op, op.cap, mid_sig[0]):
                    lhs = {}
                    for m, c in mid.items():
                        raw_iaxpy(lhs, c, (memo.get((m, zs)) or op._gamma_ids(m, zs))[1], p)
                    blocks = []
                    for x, a, b in cuts:
                        key = (x, zs[a:b])
                        blocks.append((memo.get(key) or op._gamma_ids(*key))[1])
                    rhs = op._gamma_raw(y_vec, blocks)
                    if any_odd and _past_parity(
                            [(deg[x], sum(deg[z] for z in zs[a:b])) for x, a, b in cuts]):
                        rhs = _raw_neg(rhs, p)
                    rep.checks_run += 1
                    if lhs != rhs:
                        rep.failures.append(
                            f"associativity fails: y={y_sig}:{y_name!r} "
                            f"xs={names(xs)} zs={names(zs)}"
                        )

    # d is a derivation for gamma
    for y_sig in op.signatures():
        for y_name in op.components[y_sig].basis():
            y = ids[(y_sig, y_name)]
            for xs, _ in _arity_tuples(op, op.cap, y_sig[0]):
                lhs = {}
                for t, c in op._gamma_ids(y, xs)[1].items():
                    raw_iaxpy(lhs, c, d(t), p)
                units = [{x: one} for x in xs]
                rhs, sign = {}, 1
                for i, x in enumerate(xs):
                    if d(x):
                        terms = units[:i] + [d(x)] + units[i + 1:]
                        raw_iaxpy(rhs, sign, op._gamma_raw({y: one}, terms), p)
                    if deg[x] % 2:
                        sign = -sign
                if d(y):
                    raw_iaxpy(rhs, sign, op._gamma_raw(d(y), units), p)
                rep.checks_run += 1
                if lhs != rhs:
                    rep.failures.append(
                        f"derivation fails: y={y_sig}:{y_name!r} xs={names(xs)}"
                    )

    # certificate
    if op.certificate == "char0":
        rep.certificate_note = "char0: field has characteristic 0"
        if F.kind != "Q":
            rep.failures.append("certificate char0 over a finite field")
    elif op.certificate == "free-module":
        bad = _verify_free_module(op)
        rep.certificate_note = "free-module: verified by orbit decomposition"
        rep.failures.extend(bad)
    else:
        rep.certificate_note = "asserted: cofibrancy taken on trust"
    return rep


def _verify_free_module(op: Operad) -> list[str]:
    """Check each arity's action is free: orbits of size n! with coherent signs."""
    failures = []
    for n in dict.fromkeys(len(sig[0]) for sig in op.signatures()):
        if n < 2:
            continue
        walk = op.label_orbits(n)
        failures.extend(f"free-module: {bad}" for bad in walk.size_faults(n))
        if walk.fault is not None:
            failures.append(f"free-module: {walk.fault}")
        if failures:
            return failures
    return failures
