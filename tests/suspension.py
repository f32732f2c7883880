"""The operadic suspension of uAss and the dual numbers over it.

Every stock operad has its labels of arity two and more in degree 0 and
permutes them with coefficient +1, so no stock example reaches the
Koszul signs of odd labels.  Here the word w of arity n sits in degree
n - 1 and every transposition acts by -1.  Composition is the word
splice times (-1)^(sum over the inputs x_i of (i - 1)(|x_i| - 1)), the
sign that makes the equivariance and associativity axioms hold with
their Koszul signs.

The algebra is the dual numbers k[x]/(x^2) desuspended, so 1 and x sit
in degree -1, and the word w of arity n acts as (-1)^(n(n-1)/2) times
the product of its inputs.  Over F2 every sign is +1; the signs show over
F3 and Q.
"""

from __future__ import annotations

from itertools import permutations

from kzbar.algebras import Algebra
from kzbar.catalog import _splice, _swap_letters
from kzbar.complexes import ChainComplex
from kzbar.operads import Operad, single_sig


def suspended_uass(field, cap: int) -> Operad:
    components = {single_sig(0): ChainComplex(field, {(): -1}, {})}
    for n in range(1, cap + 1):
        degs = {w: n - 1 for w in permutations(range(1, n + 1))}
        components[single_sig(n)] = ChainComplex(field, degs, {})

    def gamma(y_sig, y_name, xs):
        odd = sum(i * (len(x_sig[0]) - 1) for i, (x_sig, _) in enumerate(xs)) % 2
        return {tuple(_splice(y_name, xs)): -field.one if odd else field.one}

    def sym(sig, k, w):
        return {_swap_letters(w, k): -field.one}

    return Operad(field, ("*",), cap, components, {"*": (1,)},
                  gamma, sym, "free-module", name="suspended uAss")


def suspended_dual_numbers(field, cap: int = 3) -> Algebra:
    carrier = {"*": ChainComplex(field, {"1": -1, "x": -1}, {})}

    def theta(c_sig, c_name, xs):
        n = len(xs)
        if xs.count("x") > 1:
            return {}
        sign = -field.one if n * (n - 1) // 2 % 2 else field.one
        return {"x" if "x" in xs else "1": sign}

    return Algebra(suspended_uass(field, cap), carrier, theta,
                   name="suspended dual numbers")
