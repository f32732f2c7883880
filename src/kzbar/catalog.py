"""Stock operads: the unit operad, associative words with and without a
nullary slot, the commutative family, a DG algebra viewed as a one-object
operad, and the two-sorted algebra/module pattern.

Word components are tuples w of input positions; w names the operation
(a_1..a_n) -> a_{w_1} a_{w_2} ...  Composition splices blocks in place,
the symmetric group relabels letters.  Everything sits in degree 0 with
zero differential except algebra_as_operad, which carries its input's.
"""

from __future__ import annotations

from itertools import permutations

from kzbar.algebras import Algebra
from kzbar.complexes import ChainComplex
from kzbar.fields import FieldSpec, Scalar
from kzbar.linalg import Vec, vec_iaxpy
from kzbar.operads import Operad, OperadError, single_sig

A_SORT = "a"
M_SORT = "m"


def _splice(y_name: tuple, xs: tuple) -> list[int]:
    offs = []
    o = 0
    for x_sig, _ in xs:
        offs.append(o)
        o += len(x_sig[0])
    out: list[int] = []
    for letter in y_name:
        x_sig, x_name = xs[letter - 1]
        out.extend(v + offs[letter - 1] for v in x_name)
    return out


def _swap_letters(name: tuple, k: int) -> tuple:
    return tuple(k + 1 if v == k else k if v == k + 1 else v for v in name)


def unit_operad(field: FieldSpec) -> Operad:
    return algebra_as_operad(field, {"1": 0}, {("1", "1"): {"1": field.one}}, "1",
                             name="unit-operad")


def _word_operad(field: FieldSpec, cap: int, with_nullary: bool, name: str) -> Operad:
    components = {}
    if with_nullary:
        components[single_sig(0)] = ChainComplex(field, {(): 0}, {})
    for n in range(1, cap + 1):
        degs = {w: 0 for w in permutations(range(1, n + 1))}
        components[single_sig(n)] = ChainComplex(field, degs, {})

    def gamma(y_sig, y_name, xs):
        return {tuple(_splice(y_name, xs)): field.one}

    def sym(sig, k, w):
        return {_swap_letters(w, k): field.one}

    return Operad(field, ("*",), cap, components, {"*": (1,)},
                  gamma, sym, "free-module", name=name)


def ass_operad(field: FieldSpec, cap: int) -> Operad:
    return _word_operad(field, cap, with_nullary=False, name="Ass")


def uass_operad(field: FieldSpec, cap: int) -> Operad:
    return _word_operad(field, cap, with_nullary=True, name="uAss")


def com_operad(field: FieldSpec, cap: int) -> Operad:
    if field.kind != "Q":
        raise OperadError(
            "Com uses the char0 certificate; it is not admissible over "
            f"{field} (the trivial action is not projective there)"
        )
    components = {
        single_sig(n): ChainComplex(field, {f"mu{n}": 0}, {})
        for n in range(1, cap + 1)
    }

    def gamma(y_sig, y_name, xs):
        total = sum(len(x_sig[0]) for x_sig, _ in xs)
        return {f"mu{total}": field.one}

    def sym(sig, k, name):
        return {name: field.one}

    return Operad(field, ("*",), cap, components, {"*": "mu1"},
                  gamma, sym, "char0", name="Com")


def algebra_as_operad(
    field: FieldSpec,
    degrees: dict,
    mult: dict[tuple, Vec],
    unit_name,
    d: dict | None = None,
    name: str = "algebra-as-operad",
) -> Operad:
    """A unital DG algebra as an operad concentrated in arity 1.

    mult[(a, b)] is the product a*b as a vector; composition gamma(x; y)
    is x*y, matching 'compose the right-multiplication operators'.
    """
    sig = single_sig(1)
    comp = ChainComplex(field, degrees, d or {})

    def gamma(y_sig, y_name, xs):
        (_, x_name), = xs
        return dict(mult.get((x_name, y_name), {}))

    def sym(sig_, k, nm):
        raise OperadError("no transpositions in arity 1")

    return Operad(field, ("*",), 1, {sig: comp}, {"*": unit_name},
                  gamma, sym, "free-module", name=name, arity_bound=1)


def module_operad(field: FieldSpec, cap: int) -> Operad:
    """Two-sorted pattern for a unital associative algebra with one left
    module.  Sort-a components are the unital word operad; a component
    with one m input (at any slot) and m output has basis the orderings
    of the a slots, the word (w, slot) meaning (a_{w_1} ... a_{w_r}) . m.
    """
    components = {}
    components[((), A_SORT)] = ChainComplex(field, {(): 0}, {})
    for n in range(1, cap + 1):
        degs = {w: 0 for w in permutations(range(1, n + 1))}
        components[((A_SORT,) * n, A_SORT)] = ChainComplex(field, degs, {})
        for p in range(1, n + 1):
            ins = tuple(M_SORT if i == p else A_SORT for i in range(1, n + 1))
            rest = [i for i in range(1, n + 1) if i != p]
            degs_m = {w: 0 for w in permutations(rest)}
            components[(ins, M_SORT)] = ChainComplex(field, degs_m, {})

    def gamma(y_sig, y_name, xs):
        out = _splice(y_name, xs)
        yins, yout = y_sig
        if yout == M_SORT:
            p = yins.index(M_SORT) + 1
            off = sum(len(x_sig[0]) for x_sig, _ in xs[: p - 1])
            x_sig, x_name = xs[p - 1]
            out.extend(v + off for v in x_name)
        return {tuple(out): field.one}

    def sym(sig, k, w):
        return {_swap_letters(w, k): field.one}

    return Operad(field, (A_SORT, M_SORT), cap, components,
                  {A_SORT: (1,), M_SORT: ()},
                  gamma, sym, "free-module", name="module-operad")


# ----------------------------------------------------------- stock algebras


def koszul_word_sign(field: FieldSpec, degs_by_slot, order) -> Scalar:
    """Sign of rearranging graded slot contents into the given order."""
    sgn = field.one
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            i, j = order[a], order[b]
            if i > j and degs_by_slot[i] % 2 and degs_by_slot[j] % 2:
                sgn = -sgn
    return sgn


def _fold_product(field: FieldSpec, mult, names) -> Vec:
    """Left-to-right product of basis names through a multiplication table."""
    acc: Vec | None = None
    for nm in names:
        if acc is None:
            acc = {nm: field.one}
            continue
        nxt: Vec = {}
        for anm, ac in acc.items():
            vec_iaxpy(nxt, ac, mult.get((anm, nm), {}))
        acc = nxt
    return {} if acc is None else acc


def word_algebra(field: FieldSpec, operad: Operad, degrees: dict,
                 mult: dict[tuple, Vec], unit_name, d: dict | None = None,
                 name: str = "word-algebra") -> Algebra:
    """A unital associative DG algebra as an algebra over a word operad;
    the word dictates the multiplication order, the Koszul sign pays for
    reshuffling the graded inputs into it."""
    carrier = ChainComplex(field, degrees, d or {})

    def theta_rule(c_sig, w, xs):
        if not w:
            return {unit_name: field.one}
        degs = {i + 1: degrees[x] for i, x in enumerate(xs)}
        sgn = koszul_word_sign(field, degs, w)
        prod = _fold_product(field, mult, [xs[v - 1] for v in w])
        return {nm: sgn * c for nm, c in prod.items()}

    return Algebra(operad, {"*": carrier}, theta_rule, name=name)


def dual_numbers_algebra(field: FieldSpec, operad: Operad) -> Algebra:
    """K[x]/(x^2) with x in degree 0, over Ass or uAss."""
    one = field.one
    return word_algebra(
        field, operad,
        degrees={"1": 0, "x": 0},
        mult={("1", "1"): {"1": one}, ("1", "x"): {"x": one},
              ("x", "1"): {"x": one}},
        unit_name="1",
        name="dual-numbers",
    )


def ground_algebra(field: FieldSpec, operad: Operad) -> Algebra:
    """The trivial algebra: one degree-0 generator per sort, every
    operation evaluates to it.  Valid over every stock operad."""
    carrier = {s: ChainComplex(field, {"1": 0}, {}) for s in operad.sorts}

    def theta_rule(c_sig, c_name, xs):
        return {"1": field.one}

    return Algebra(operad, carrier, theta_rule, name="ground")


def module_pair_algebra(field: FieldSpec, operad: Operad, b_degrees: dict,
                        b_mult: dict[tuple, Vec], b_unit, m_degrees: dict,
                        action: dict[tuple, Vec], b_d: dict | None = None,
                        m_d: dict | None = None,
                        name: str = "module-pair") -> Algebra:
    """Algebra over the two-sorted pattern: a unital associative algebra
    on sort a and a left module on sort m; action[(b, m)] is b . m."""
    carrier = {
        A_SORT: ChainComplex(field, b_degrees, b_d or {}),
        M_SORT: ChainComplex(field, m_degrees, m_d or {}),
    }

    def theta_rule(c_sig, w, xs):
        ins, out = c_sig
        if out == A_SORT:
            if not w:
                return {b_unit: field.one}
            degs = {i + 1: b_degrees[x] for i, x in enumerate(xs)}
            sgn = koszul_word_sign(field, degs, w)
            prod = _fold_product(field, b_mult, [xs[v - 1] for v in w])
            return {nm: sgn * c for nm, c in prod.items()}
        p = ins.index(M_SORT) + 1
        degs = {}
        for i, x in enumerate(xs):
            degs[i + 1] = m_degrees[x] if i + 1 == p else b_degrees[x]
        order = tuple(w) + (p,)
        sgn = koszul_word_sign(field, degs, order)
        out_vec: Vec = {xs[p - 1]: field.one}
        if w:
            prod = _fold_product(field, b_mult, [xs[v - 1] for v in w])
            acted: Vec = {}
            for bnm, bc in prod.items():
                vec_iaxpy(acted, bc, action.get((bnm, xs[p - 1]), {}))
            out_vec = acted
        return {nm: sgn * c for nm, c in out_vec.items()}

    return Algebra(operad, carrier, theta_rule, name=name)


def augmentation_module_pair(field: FieldSpec, operad: Operad) -> Algebra:
    """Dual numbers acting on a 1-dim module through x . m = 0."""
    one = field.one
    return module_pair_algebra(
        field, operad,
        b_degrees={"1": 0, "x": 0},
        b_mult={("1", "1"): {"1": one}, ("1", "x"): {"x": one},
                ("x", "1"): {"x": one}},
        b_unit="1",
        m_degrees={"m0": 0},
        action={("1", "m0"): {"m0": one}},
        name="dual-numbers-augmentation",
    )


_BUILTINS = {
    "unit-operad": lambda field, cap: unit_operad(field),
    "Ass": ass_operad,
    "uAss": uass_operad,
    "Com": com_operad,
    "module-operad": module_operad,
}


def builtin(name: str, field: FieldSpec, cap: int) -> Operad:
    """Stock operad by name; algebra_as_operad needs data, call it directly."""
    try:
        make = _BUILTINS[name]
    except KeyError:
        known = ", ".join(sorted(_BUILTINS))
        raise OperadError(f"unknown builtin operad {name!r}; known: {known}") from None
    return make(field, cap)


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))
