"""``Operad._gamma_raw`` reads the table once when y and every x have a
single term, as on every associativity triple of uAss; otherwise it sums
the product of the terms.  Both must equal the generic product written
out here, on single-term and multi-term inputs with coefficients other
than 1, over F2, F3 and Q, on composites with one term, with two terms
(Q[x]/(x^2 - x - 1)), with the sign of an odd label (the suspension of
uAss) and zero past a declared arity bound."""

from __future__ import annotations

from itertools import product

import pytest

from kzbar.catalog import ass_operad, uass_operad
from kzbar.fields import GF, QQ
from kzbar.linalg import raw_iaxpy
from kzbar.operads import Operad, _arity_tuples
from suspension import suspended_uass
from test_axiom_oracle import golden_operad


def _bounded_ass(field):
    """Ass in arities up to 2 with arity bound 2: a composite of arity 3
    or 4 is zero, with no call to the rule."""
    ass = ass_operad(field, 2)
    return Operad(field, ass.sorts, 2, ass.components, ass.unit_names,
                  ass._gamma_rule, ass._sym_rule, "free-module", arity_bound=2)


OPERADS = {
    "uAss-F2": lambda: uass_operad(GF(2), 3),
    "uAss-F3": lambda: uass_operad(GF(3), 3),
    "uAss-Q": lambda: uass_operad(QQ, 3),
    "suspended-uAss-F3": lambda: suspended_uass(GF(3), 3),
    "suspended-uAss-Q": lambda: suspended_uass(QQ, 3),
    "golden-Q": golden_operad,
    "bounded-Ass-F3": lambda: _bounded_ass(GF(3)),
    "bounded-Ass-Q": lambda: _bounded_ass(QQ),
}


def _generic(op, y_vec, xs):
    """Sum over every choice of one term per input of the coefficient
    product times the table entry."""
    p = op.field.p
    out: dict = {}
    for y, cy in y_vec.items():
        for combo in product(*(x.items() for x in xs)):
            coeff = cy
            for _, cx in combo:
                coeff = coeff * cx % p if p else coeff * cx
            raw_iaxpy(out, coeff, op._gamma_ids(y, tuple(i for i, _ in combo))[1], p)
    return out


def _coefficients(field):
    """Raw coefficients to cycle through, 1 and others where the field
    has them."""
    if field.p == 2:
        return [1]
    return [field.scalar(c).val for c in (2, 1, -1, 3 if field.p is None else 1)]


@pytest.mark.parametrize("name", list(OPERADS))
def test_the_single_term_read_equals_the_generic_product(name):
    op = OPERADS[name]()
    coeffs = _coefficients(op.field)
    by_sig: dict = {}
    for i, (sig, _) in enumerate(op._labels):
        by_sig.setdefault(sig, []).append(i)
    # past a declared bound every composite is zero, so any total arity
    # may be read
    total_max = op.cap if op.arity_bound is None else 2 * op.cap
    single = multi = zeros = 0
    for y, (y_sig, _) in enumerate(op._labels):
        for xs, _ in _arity_tuples(op, total_max, y_sig[0]):
            k = y + len(xs)
            c = coeffs[k % len(coeffs)]
            x_vecs = [{x: coeffs[(k + j) % len(coeffs)]} for j, x in enumerate(xs)]
            want = _generic(op, {y: c}, x_vecs)
            got = op._gamma_raw({y: c}, x_vecs)
            assert got == want, (y, xs)
            single += 1
            zeros += not want
            got.clear()  # a fresh vector: the table keeps its entry
            assert op._gamma_raw({y: c}, x_vecs) == want
            # a second term in y and in every slot whose component has one
            y_vec = {y: c}
            for other in by_sig[y_sig]:
                if other != y:
                    y_vec[other] = coeffs[(k + 1) % len(coeffs)]
                    break
            x_vecs = []
            for j, x in enumerate(xs):
                vec = {x: coeffs[(k + j) % len(coeffs)]}
                for other in by_sig[op._labels[x][0]]:
                    if other != x:
                        vec[other] = coeffs[(k + j + 1) % len(coeffs)]
                        break
                x_vecs.append(vec)
            if len(y_vec) > 1 or any(len(v) > 1 for v in x_vecs):
                assert op._gamma_raw(y_vec, x_vecs) == _generic(op, y_vec, x_vecs), (y, xs)
                multi += 1
    assert single > 0 and multi > 0
    if name.startswith("bounded"):
        assert zeros > 0
