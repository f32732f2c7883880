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

from dataclasses import dataclass, field as dc_field
from itertools import accumulate, product as iproduct
from math import factorial

from kzbar.complexes import ChainComplex
from kzbar.fields import FieldSpec, Scalar
from kzbar.linalg import Vec, vec_axpy, vec_iaxpy, vec_scale

Sig = tuple[tuple[str, ...], str]  # (input sorts, output sort)
Label = tuple[Sig, object]  # (signature, basis name)


class OperadError(ValueError):
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


@dataclass
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

    members: dict[Label, tuple[Label, int, tuple[int, ...]]] = dc_field(default_factory=dict)
    sizes: dict[Label, int] = dc_field(default_factory=dict)
    fault: str | None = None

    def size_faults(self, n: int) -> list[str]:
        """One line per finished orbit of arity n whose size is not n!,
        the size of a free orbit."""
        want = factorial(n)
        return [f"orbit of {sig}:{name!r} has size {size}, want {want}"
                for (sig, name), size in self.sizes.items() if size != want]


@dataclass
class OperadElement:
    operad: "Operad"
    sig: Sig
    vec: Vec  # basis name -> Scalar

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
            if comp.degrees[uname] != 0 or comp.d.get(uname):
                raise OperadError(f"unit of sort {srt!r} is not a degree-0 cycle")

    # -------------------------------------------------------------- access

    def component(self, sig: Sig) -> ChainComplex | None:
        return self.components.get(sig)

    def dim(self, sig: Sig) -> int:
        c = self.components.get(sig)
        return len(c.degrees) if c else 0

    def degree_of(self, sig: Sig, name) -> int:
        return self.components[sig].degrees[name]

    def unit(self, sort: str = "*") -> OperadElement:
        uname = self.unit_names[sort]
        return OperadElement(self, ((sort,), sort), {uname: self.field.one})

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

    def gamma_basis(self, y_sig: Sig, y_name, xs: tuple) -> tuple[Sig, Vec]:
        """Structure constants on a basis tuple; xs = ((sig, name), ...).
        Returns the target signature with the vector, both memoized; the
        sorts and arity are checked on a miss only.  Zero past a declared
        arity bound; otherwise CapExceeded past the cap, since the
        components there are not materialised, and that is never memoized."""
        key = (y_sig, y_name, xs)
        hit = self._gamma_memo.get(key)
        if hit is not None:
            return hit
        yins, yout = y_sig
        if len(xs) != len(yins):
            raise OperadError(f"gamma arity mismatch: {len(xs)} inputs for {y_sig}")
        for (x_sig, _), want in zip(xs, yins):
            if x_sig[1] != want:
                raise OperadError(f"sort mismatch: {x_sig[1]!r} fed into {want!r} slot")
        target_inputs = tuple(s for x_sig, _ in xs for s in x_sig[0])
        target_sig = (target_inputs, yout)
        if self.arity_bound is not None and len(target_inputs) > self.arity_bound:
            hit = (target_sig, {})
        elif len(target_inputs) > self.cap:
            raise CapExceeded(
                f"gamma result arity {len(target_inputs)} exceeds cap {self.cap}"
            )
        else:
            hit = (target_sig, self._gamma_rule(y_sig, y_name, xs))
        self._gamma_memo[key] = hit
        return hit

    def gamma_vec(self, y_sig: Sig, y_vec: Vec, xs: list[tuple[Sig, Vec]]) -> tuple[Sig, Vec]:
        """gamma(x_1,...,x_k; y) on raw vectors, multilinear in everything;
        xs = [(sig, Vec), ...].  Returns the target signature and a fresh
        vector."""
        target: Vec = {}
        x_sigs = [x_sig for x_sig, _ in xs]
        for _, x_vec in xs:  # a factor of one is skipped below, not its field
            for cx in x_vec.values():
                self.field.one._check(cx)
        for y_name, cy in y_vec.items():
            for combo in iproduct(*(x_vec.items() for _, x_vec in xs)):
                coeff = cy
                for _, cx in combo:
                    if cx.val != 1:
                        coeff = coeff * cx
                _, vec = self.gamma_basis(
                    y_sig, y_name, tuple(zip(x_sigs, [nm for nm, _ in combo]))
                )
                vec_iaxpy(target, coeff, vec)
        return (tuple(s for x_sig in x_sigs for s in x_sig[0]), y_sig[1]), target

    def gamma(self, xs: list[OperadElement], y: OperadElement) -> OperadElement:
        """Full composition gamma(x_1,...,x_k; y), multilinear in everything."""
        sig, vec = self.gamma_vec(y.sig, y.vec, [(x.sig, x.vec) for x in xs])
        return OperadElement(self, sig, vec)

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
        comp = self.components[sig]
        out = {}
        for name in comp.degrees:
            img = self.apply_perm(OperadElement(self, sig, {name: self.field.one}), sigma)
            out[name] = (img.sig, img.vec)
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

    def max_nonzero_arity(self) -> int:
        return max((len(sig[0]) for sig in self.components), default=0)

    def arity_signatures(self, n: int) -> list[Sig]:
        return [sig for sig in self._signatures if len(sig[0]) == n]

    def d_element(self, el: OperadElement) -> OperadElement:
        comp = self.components[el.sig]
        return OperadElement(self, el.sig, comp.apply_d(el.vec))


# ------------------------------------------------------------------ report


@dataclass
class OperadReport:
    operad: str
    failures: list[str] = dc_field(default_factory=list)
    checks_run: int = 0
    certificate_note: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures


def koszul_sign(field: FieldSpec, deg_a: int, deg_b: int) -> Scalar:
    """Sign of moving a degree-deg_a element past a degree-deg_b one."""
    return -field.one if (deg_a % 2 and deg_b % 2) else field.one


def _labels_past_words(field: FieldSpec, degs) -> Scalar:
    """Koszul sign of moving each factor's label right, past the factor
    words after it; degs holds (label degree, word degree) per factor."""
    sgn, later = field.one, 0
    for c_deg, w_deg in reversed(degs):
        sgn = sgn * koszul_sign(field, c_deg, later)
        later += w_deg
    return sgn


def _arity_tuples(op: Operad, total_max: int, slots_sorts: tuple[str, ...]) -> tuple:
    """All tuples of (sig, name) basis choices matching the sorts, with
    total resulting arity at most total_max, each paired with that arity;
    memoized per operad."""
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
            names = op.components[sig].basis()
            for tail, tail_a in _arity_tuples(op, total_max - a, rest):
                out.extend((((sig, name),) + tail, a + tail_a) for name in names)
        hit = tuple(out)
    op._tuple_memo[key] = hit
    return hit


def verify_operad(op: Operad) -> OperadReport:
    """Exhaustive axiom check on basis tuples within the arity cap."""
    rep = OperadReport(operad=op.name)
    F = op.field

    # symmetric group relations on every component
    for sig in op.signatures():
        n = len(sig[0])
        comp = op.components[sig]
        for name in comp.basis():
            base = OperadElement(op, sig, {name: F.one})
            for k in range(1, n):
                sig1, v1 = op.apply_transposition(sig, k, base.vec)
                sig2, v2 = op.apply_transposition(sig1, k, v1)
                rep.checks_run += 1
                if sig2 != sig or v2 != base.vec:
                    rep.failures.append(f"{sig} s_{k}^2 != id at {name!r}")
            for k in range(1, n - 1):
                a = _chain_transpositions(op, sig, base.vec, [k, k + 1, k])
                b = _chain_transpositions(op, sig, base.vec, [k + 1, k, k + 1])
                rep.checks_run += 1
                if a != b:
                    rep.failures.append(f"{sig} braid s_{k} s_{k+1} s_{k} fails at {name!r}")
            for k in range(1, n):
                for j in range(k + 2, n):
                    a = _chain_transpositions(op, sig, base.vec, [k, j])
                    b = _chain_transpositions(op, sig, base.vec, [j, k])
                    rep.checks_run += 1
                    if a != b:
                        rep.failures.append(f"{sig} s_{k} s_{j} commute fails at {name!r}")

    # unit laws
    for sig in op.signatures():
        comp = op.components[sig]
        ins, out = sig
        for name in comp.basis():
            x = OperadElement(op, sig, {name: F.one})
            got = op.gamma([x], op.unit(out))
            rep.checks_run += 1
            if got.vec != x.vec:
                rep.failures.append(f"gamma(x; 1) != x at {sig} {name!r}")
            if all(s in op.unit_names for s in ins):
                got2 = op.gamma([op.unit(s) for s in ins], x)
                rep.checks_run += 1
                if got2.vec != x.vec:
                    rep.failures.append(f"gamma(1..1; y) != y at {sig} {name!r}")

    # equivariance on adjacent transpositions
    for y_sig in op.signatures():
        yins, yout = y_sig
        k_ar = len(yins)
        if k_ar < 2:
            continue
        ycomp = op.components[y_sig]
        for y_name in ycomp.basis():
            for xs, _ in _arity_tuples(op, op.cap, yins):
                for k in range(1, k_ar):
                    ok = _check_equivariance(op, y_sig, y_name, xs, k)
                    rep.checks_run += 1
                    if not ok:
                        rep.failures.append(
                            f"equivariance fails: y={y_sig}:{y_name!r} xs={[n for _, n in xs]} s_{k}"
                        )

    # associativity: gamma(zs; gamma(xs; y)) against gamma(gamma(block_i;
    # x_i)...; y), up to the Koszul sign of moving each x_i right past the
    # later blocks.  gamma(xs; y) is looked up once per (y, xs) and each
    # block composition once per (x, block); every (y, xs, zs) is still
    # compared.
    inner: dict = {}
    for y_sig in op.signatures():
        for y_name in op.components[y_sig].basis():
            y_vec = {y_name: F.one}
            for xs, _ in _arity_tuples(op, op.cap, y_sig[0]):
                mid_sig, mid = op.gamma_basis(y_sig, y_name, xs)
                widths = [len(x_sig[0]) for x_sig, _ in xs]
                x_degs = [op.degree_of(*x) for x in xs]
                any_odd = any(d % 2 for d in x_degs)
                for zs, _ in _arity_tuples(op, op.cap, mid_sig[0]):
                    lhs: Vec = {}
                    for m, c in mid.items():
                        vec_iaxpy(lhs, c, op.gamma_basis(mid_sig, m, zs)[1])
                    lhs_sig = (tuple(s for z_sig, _ in zs for s in z_sig[0]), mid_sig[1])
                    blocks = []
                    pos = 0
                    for x, w in zip(xs, widths):
                        key = (x, zs[pos:pos + w])
                        pos += w
                        hit = inner.get(key)
                        if hit is None:
                            hit = inner[key] = op.gamma_basis(x[0], x[1], key[1])
                        blocks.append(hit)
                    rhs_sig, rhs = op.gamma_vec(y_sig, y_vec, blocks)
                    if any_odd:
                        sgn = _labels_past_words(F, [
                            (x_deg, sum(op.degree_of(*z) for z in zs[pos - w:pos]))
                            for x_deg, w, pos in zip(x_degs, widths, accumulate(widths))])
                        rhs = vec_scale(rhs, sgn)
                    rep.checks_run += 1
                    if lhs_sig != rhs_sig or lhs != rhs:
                        rep.failures.append(
                            f"associativity fails: y={y_sig}:{y_name!r} "
                            f"xs={[n for _, n in xs]} zs={[n for _, n in zs]}"
                        )

    # d is a derivation for gamma
    for y_sig in op.signatures():
        ycomp = op.components[y_sig]
        for y_name in ycomp.basis():
            for xs, _ in _arity_tuples(op, op.cap, y_sig[0]):
                ok = _check_derivation(op, y_sig, y_name, xs)
                rep.checks_run += 1
                if not ok:
                    rep.failures.append(
                        f"derivation fails: y={y_sig}:{y_name!r} xs={[n for _, n in xs]}"
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


def _chain_transpositions(op: Operad, sig: Sig, vec: Vec, ks: list[int]):
    for k in ks:
        sig, vec = op.apply_transposition(sig, k, vec)
    return sig, vec


def _check_equivariance(op: Operad, y_sig: Sig, y_name, xs: tuple, k: int) -> bool:
    F = op.field
    y = op.basis_element(y_sig, y_name)
    x_els = [op.basis_element(s, n) for s, n in xs]
    sy_sig, sy_vec = op.apply_transposition(y_sig, k, y.vec)
    sy = OperadElement(op, sy_sig, sy_vec)
    swapped = list(x_els)
    swapped[k - 1], swapped[k] = swapped[k], swapped[k - 1]
    lhs = op.gamma(swapped, sy)
    rhs0 = op.gamma(x_els, y)
    arities = [len(s[0]) for s, _ in xs]
    sigma = list(range(1, len(xs) + 1))
    sigma[k - 1], sigma[k] = sigma[k], sigma[k - 1]
    beta = block_perm(tuple(sigma), arities)
    rhs = op.apply_perm(rhs0, beta)
    da = op.degree_of(xs[k - 1][0], xs[k - 1][1])
    db = op.degree_of(xs[k][0], xs[k][1])
    rhs = rhs.scale(koszul_sign(F, da, db))
    return lhs.sig == rhs.sig and lhs.vec == rhs.vec


def _check_derivation(op: Operad, y_sig: Sig, y_name, xs: tuple) -> bool:
    F = op.field
    y = op.basis_element(y_sig, y_name)
    x_els = [op.basis_element(s, n) for s, n in xs]
    lhs = op.d_element(op.gamma(x_els, y))
    rhs = op.zero(lhs.sig)
    sign = F.one
    for i, x in enumerate(x_els):
        dx = op.d_element(x)
        if not dx.is_zero():
            terms = list(x_els)
            terms[i] = dx
            rhs = rhs + op.gamma(terms, y).scale(sign)
        if op.degree_of(xs[i][0], xs[i][1]) % 2:
            sign = -sign
    dy = op.d_element(y)
    if not dy.is_zero():
        rhs = rhs + op.gamma(x_els, dy).scale(sign)
    return lhs.vec == rhs.vec


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
