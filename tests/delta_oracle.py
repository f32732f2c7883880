"""Reference induced differential: one partial composition per split term.

This is ``DStructure.delta_terms`` as ``kzbar.dstructures`` first wrote
it, on Scalars.  Each slot's splitting is composed into the word's label
through ``Operad.gamma_j`` on boxed elements, and the split label
crossing the factors to its right pays ``koszul_sign`` here, not in
``FreeAlgebra.compose``.  The raw word differential and splitting of the
D-structure are boxed on entry, and the tests box the raw induced
differential to compare the two on every word of small arity; no golden
has an odd label, so this comparison is what guards the crossing sign.
"""

from __future__ import annotations

from kzbar.linalg import vec_box
from kzbar.operads import koszul_sign


def _acc(out: dict, key, c) -> None:
    s = out.get(key)
    s = c if s is None else s + c
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


def delta_terms(ds, big) -> dict:
    sig, xw, c_name = big
    F, op = ds.field, ds.operad
    c = op.basis_element(sig, c_name)
    out = vec_box(ds.free.word_d(big), F)
    sgn = F.one
    degs = [ds.carrier[s].degrees[x] for s, x in zip(sig[0], xw)]
    for i, (srt, x) in enumerate(zip(sig[0], xw)):
        tail = sum(degs[i + 1:])
        for (msig, yw, b_name), cf in vec_box(ds.delta_of(srt, x), F).items():
            ssgn = sgn * cf * koszul_sign(F, op.degree_of(msig, b_name), tail)
            comp = op.gamma_j(i + 1, op.basis_element(msig, b_name), c)
            w2 = xw[:i] + yw + xw[i + 1:]
            for nm2, cf2 in comp.vec.items():
                _acc(out, (comp.sig, w2, nm2), ssgn * cf2)
        if degs[i] % 2:
            sgn = -sgn
    return out
