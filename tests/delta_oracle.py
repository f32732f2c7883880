"""Reference induced differential: one partial composition per split term.

This is ``DStructure.delta_terms`` as ``kzbar.dstructures`` first wrote
it.  Each slot's splitting is composed into the word's label through
``Operad.gamma_j`` on boxed elements, and the split label crossing the
factors to its right pays ``koszul_sign`` here, not in
``FreeAlgebra.compose``.  The tests compare the two on every word of
small arity; no golden has an odd label, so this comparison is what
guards the crossing sign.
"""

from __future__ import annotations

from kzbar.linalg import vec_acc
from kzbar.operads import koszul_sign


def delta_terms(ds, big) -> dict:
    sig, xw, c_name = big
    F, op = ds.field, ds.operad
    c = op.basis_element(sig, c_name)
    out = ds.free.word_d(big)
    sgn = F.one
    degs = [ds.carrier[s].degrees[x] for s, x in zip(sig[0], xw)]
    for i, (srt, x) in enumerate(zip(sig[0], xw)):
        tail = sum(degs[i + 1:])
        for (msig, yw, b_name), cf in ds.delta_of(srt, x).items():
            ssgn = sgn * cf * koszul_sign(F, op.degree_of(msig, b_name), tail)
            comp = op.gamma_j(i + 1, op.basis_element(msig, b_name), c)
            w2 = xw[:i] + yw + xw[i + 1:]
            for nm2, cf2 in comp.vec.items():
                vec_acc(out, (comp.sig, w2, nm2), ssgn * cf2)
        if degs[i] % 2:
            sgn = -sgn
    return out
