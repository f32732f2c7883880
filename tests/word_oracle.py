"""Reference word arithmetic for free algebras, one loop per operation.

These are the word-level operations as ``kzbar.dstructures`` and
``kzbar.algebras`` first wrote them, each with its own copy of the
Koszul convention (label last, factors left to right):

- ``compose``: word vectors composed through an operad label, each
  factor's label paying for crossing the later factor words;
- ``word_d``: the internal differential of one word, generator by
  generator under the running sign, then the label's differential;
- ``delta_terms``: the induced differential of a D-structure on one
  word, with the internal and the splitting terms interleaved slot by
  slot.

They share no code with ``FreeAlgebra`` and run on Scalars; the
D-structure's raw splitting is boxed on entry, and the tests box the raw
results to compare the two.
"""

from __future__ import annotations

from itertools import product as iproduct

from kzbar.linalg import vec_box


def _acc(out: dict, key, c) -> None:
    s = out.get(key)
    s = c if s is None else s + c
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


def compose(fa, vecs: list[dict], c_sig, c_name) -> dict:
    F = fa.field
    op = fa.operad
    out: dict = {}
    items = [sorted(v.items(), key=lambda kv: str(kv[0])) for v in vecs]
    for combo in iproduct(*items):
        coeff = F.one
        for _, c in combo:
            coeff = coeff * c
        word_degs = []
        for (sig_i, xw_i, _), _ in combo:
            word_degs.append(sum(fa.generators[s].degrees[x]
                                 for s, x in zip(sig_i[0], xw_i)))
        sgn = F.one
        for i, ((sig_i, _, nm_i), _) in enumerate(combo):
            if op.degree_of(sig_i, nm_i) % 2 and sum(word_degs[i + 1:]) % 2:
                sgn = -sgn
        comp = op.gamma(
            [op.basis_element(sig_i, nm_i) for (sig_i, _, nm_i), _ in combo],
            op.basis_element(c_sig, c_name),
        )
        xw_all = tuple(x for (_, xw_i, _), _ in combo for x in xw_i)
        for nm, cf in comp.vec.items():
            _acc(out, (comp.sig, xw_all, nm), coeff * sgn * cf)
    return out


def word_d(fa, big) -> dict:
    F = fa.field
    sig, xw, c_name = big
    db: dict = {}
    sgn = F.one
    for i, (s, x) in enumerate(zip(sig[0], xw)):
        gen = fa.generators[s]
        for nm, cf in gen.d.get(x, {}).items():
            _acc(db, (sig, xw[:i] + (nm,) + xw[i + 1:], c_name), sgn * cf)
        if gen.degrees[x] % 2:
            sgn = -sgn
    for nm, cf in fa.operad.components[sig].d.get(c_name, {}).items():
        _acc(db, (sig, xw, nm), sgn * cf)
    return db


def delta_terms(ds, big) -> dict:
    sig, xw, c_name = big
    ins, _ = sig
    F = ds.field
    op = ds.operad
    out: dict = {}
    sgn = F.one
    degs = [ds.carrier[s].degrees[x] for s, x in zip(ins, xw)]
    for i, (srt, x) in enumerate(zip(ins, xw)):
        for nm, cf in ds.carrier[srt].d.get(x, {}).items():
            _acc(out, (sig, xw[:i] + (nm,) + xw[i + 1:], c_name), sgn * cf)
        for (msig, yw, b_name), cf in vec_box(ds.delta_of(srt, x), F).items():
            tail = sum(degs[i + 1:])
            ssgn = sgn * cf
            if op.degree_of(msig, b_name) % 2 and tail % 2:
                ssgn = -ssgn
            comp = op.gamma_j(i + 1, op.basis_element(msig, b_name),
                              op.basis_element(sig, c_name))
            w2 = xw[:i] + yw + xw[i + 1:]
            for nm2, cf2 in comp.vec.items():
                _acc(out, (comp.sig, w2, nm2), ssgn * cf2)
        if degs[i] % 2:
            sgn = -sgn
    for nm, cf in op.components[sig].d.get(c_name, {}).items():
        _acc(out, (sig, xw, nm), sgn * cf)
    return out
