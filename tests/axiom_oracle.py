"""Reference axiom certificates: one composition per compared instance.

These are ``verify_operad`` and ``verify_algebra`` as ``kzbar.operads``
and ``kzbar.algebras`` first wrote them.  Every instance builds its
elements with ``basis_element`` and composes them afresh through
``Operad.gamma`` and ``Algebra.theta_eval``; the basis tuples come from
an unmemoized recursive enumeration.  The tests compare the two
certificates' check counts and failure lists, text and order.
"""

from __future__ import annotations

from itertools import product as iproduct

from kzbar.algebras import AlgebraElement, AlgebraReport
from kzbar.linalg import vec_iaxpy
from kzbar.operads import (
    CapExceeded,
    OperadElement,
    OperadReport,
    _past_parity,
    _verify_free_module,
    block_perm,
    koszul_sign,
)


def _labels_past_words(field, degs):
    """Koszul sign of moving each factor's label right, past the factor
    words after it; degs holds (label degree, word degree) per factor."""
    return -field.one if _past_parity(degs) else field.one


def signatures(op):
    return sorted(op.components.keys(), key=str)


def arity_tuples(op, total_max: int, slots_sorts: tuple):
    """All tuples of (sig, name) basis choices matching the sorts, with
    total resulting arity at most total_max."""
    if not slots_sorts:
        yield (), 0
        return
    first, rest = slots_sorts[0], slots_sorts[1:]
    for sig in signatures(op):
        if sig[1] != first:
            continue
        a = len(sig[0])
        if a > total_max:
            continue
        for tail, tail_a in arity_tuples(op, total_max - a, rest):
            comp = op.components[sig]
            for name in comp.basis():
                yield ((sig, name),) + tail, a + tail_a


# ------------------------------------------------------------------ operads


def verify_operad(op) -> OperadReport:
    rep = OperadReport(operad=op.name)
    F = op.field

    # symmetric group relations on every component
    for sig in signatures(op):
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
    for sig in signatures(op):
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
    for y_sig in signatures(op):
        yins, yout = y_sig
        k_ar = len(yins)
        if k_ar < 2:
            continue
        ycomp = op.components[y_sig]
        for y_name in ycomp.basis():
            for xs, _ in arity_tuples(op, op.cap, yins):
                for k in range(1, k_ar):
                    ok = _check_equivariance(op, y_sig, y_name, xs, k)
                    rep.checks_run += 1
                    if not ok:
                        rep.failures.append(
                            f"equivariance fails: y={y_sig}:{y_name!r} xs={[n for _, n in xs]} s_{k}"
                        )

    # associativity
    for y_sig in signatures(op):
        yins = y_sig[0]
        ycomp = op.components[y_sig]
        for y_name in ycomp.basis():
            for xs, _mid in arity_tuples(op, op.cap, yins):
                mid_sorts = tuple(s for x_sig, _ in xs for s in x_sig[0])
                for zs, _fin in arity_tuples(op, op.cap, mid_sorts):
                    ok = _check_associativity(op, y_sig, y_name, xs, zs)
                    rep.checks_run += 1
                    if not ok:
                        rep.failures.append(
                            f"associativity fails: y={y_sig}:{y_name!r} "
                            f"xs={[n for _, n in xs]} zs={[n for _, n in zs]}"
                        )

    # d is a derivation for gamma
    for y_sig in signatures(op):
        ycomp = op.components[y_sig]
        for y_name in ycomp.basis():
            for xs, _ in arity_tuples(op, op.cap, y_sig[0]):
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


def _chain_transpositions(op, sig, vec, ks):
    for k in ks:
        sig, vec = op.apply_transposition(sig, k, vec)
    return sig, vec


def _check_equivariance(op, y_sig, y_name, xs, k) -> bool:
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


def _check_associativity(op, y_sig, y_name, xs, zs) -> bool:
    y = op.basis_element(y_sig, y_name)
    x_els = [op.basis_element(s, n) for s, n in xs]
    z_els = [op.basis_element(s, n) for s, n in zs]
    mid = op.gamma(x_els, y)
    lhs = op.gamma(z_els, mid)
    # regroup z's into blocks per x arities
    blocks = []
    pos = 0
    for x in x_els:
        blocks.append(z_els[pos : pos + x.arity])
        pos += x.arity
    inner = [op.gamma(blk, x) for blk, x in zip(blocks, x_els)]
    rhs = op.gamma(inner, y)
    # x_i moves right past every z of a later block
    odd = sum(op.degree_of(*xs[i]) * op.degree_of(z.sig, name)
              for i in range(len(xs)) for blk in blocks[i + 1:]
              for z in blk for name in z.vec)
    rhs = rhs.scale(koszul_sign(op.field, odd, 1))
    return lhs.sig == rhs.sig and lhs.vec == rhs.vec


def _check_derivation(op, y_sig, y_name, xs) -> bool:
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


# ----------------------------------------------------------------- algebras


def carrier_tuples(alg, sorts):
    pools = [sorted(alg.carrier[s].basis(), key=str) for s in sorts]
    return iproduct(*pools)


def verify_algebra(alg) -> AlgebraReport:
    rep = AlgebraReport(algebra=alg.name)
    op = alg.operad
    F = alg.field

    # unit law
    for srt, comp in sorted(alg.carrier.items()):
        if srt not in op.unit_names:
            continue
        u = op.unit(srt)
        for name in comp.basis():
            got = alg.theta_eval([alg.basis_element(srt, name)], u)
            rep.checks_run += 1
            if got.vec != {name: F.one}:
                rep.failures.append(f"theta(x; 1) != x at sort {srt!r} {name!r}")

    # equivariance on adjacent transpositions
    for c_sig in signatures(op):
        ins, _ = c_sig
        n = len(ins)
        if n < 2:
            continue
        for c_name in op.components[c_sig].basis():
            for xs in carrier_tuples(alg, ins):
                for k in range(1, n):
                    try:
                        ok = _check_action_equivariance(alg, c_sig, c_name, xs, k)
                    except CapExceeded:
                        continue
                    rep.checks_run += 1
                    if not ok:
                        rep.failures.append(
                            f"equivariance fails: c={c_sig}:{c_name!r} xs={list(xs)} s_{k}"
                        )

    # composition against gamma
    for c_sig in signatures(op):
        ins, _ = c_sig
        for c_name in op.components[c_sig].basis():
            for cs, _tot in arity_tuples(op, op.cap, ins):
                flat_sorts = tuple(s for ci_sig, _ in cs for s in ci_sig[0])
                for xs in carrier_tuples(alg, flat_sorts):
                    try:
                        ok = _check_action_composition(alg, c_sig, c_name, cs, xs)
                    except CapExceeded:
                        continue
                    rep.checks_run += 1
                    if not ok:
                        rep.failures.append(
                            f"composition fails: c={c_sig}:{c_name!r} "
                            f"cs={[n for _, n in cs]} xs={list(xs)}"
                        )

    # Leibniz
    for c_sig in signatures(op):
        ins, _ = c_sig
        for c_name in op.components[c_sig].basis():
            for xs in carrier_tuples(alg, ins):
                try:
                    ok = _check_action_leibniz(alg, c_sig, c_name, xs)
                except CapExceeded:
                    continue
                rep.checks_run += 1
                if not ok:
                    rep.failures.append(
                        f"Leibniz fails: c={c_sig}:{c_name!r} xs={list(xs)}"
                    )
    return rep


def _check_action_equivariance(alg, c_sig, c_name, xs, k) -> bool:
    op = alg.operad
    F = alg.field
    ins, _ = c_sig
    sc_sig, sc_vec = op.apply_transposition(c_sig, k, {c_name: F.one})
    swapped = list(xs)
    swapped[k - 1], swapped[k] = swapped[k], swapped[k - 1]
    lhs = {}
    for nm, cf in sc_vec.items():
        vec_iaxpy(lhs, cf, alg.theta_basis(sc_sig, nm, tuple(swapped)))
    da = alg.carrier_degree(ins[k - 1], xs[k - 1])
    db = alg.carrier_degree(ins[k], xs[k])
    sgn = koszul_sign(F, da, db)
    rhs_vec = alg.theta_basis(c_sig, c_name, tuple(xs))
    rhs = {n: sgn * c for n, c in rhs_vec.items()}
    return lhs == rhs


def _check_action_composition(alg, c_sig, c_name, cs, xs) -> bool:
    op = alg.operad
    F = alg.field
    c = op.basis_element(c_sig, c_name)
    c_els = [op.basis_element(s, n) for s, n in cs]
    blocks = []
    pos = 0
    for ci_sig, _ in cs:
        w = len(ci_sig[0])
        blocks.append(xs[pos:pos + w])
        pos += w
    inner = [
        AlgebraElement(alg, ci_sig[1], alg.theta_basis(ci_sig, ci_name, tuple(blk)))
        for (ci_sig, ci_name), blk in zip(cs, blocks)
    ]
    lhs = alg.theta_eval(inner, c)
    comp = op.gamma(c_els, c)
    flat_sorts = tuple(s for ci_sig, _ in cs for s in ci_sig[0])
    flat_x = [alg.basis_element(s, n) for s, n in zip(flat_sorts, xs)]
    rhs = alg.theta_eval(flat_x, comp)
    sgn = _labels_past_words(F, [
        (op.degree_of(ci_sig, ci_name),
         sum(alg.carrier_degree(s, n) for s, n in zip(ci_sig[0], blk)))
        for (ci_sig, ci_name), blk in zip(cs, blocks)])
    return lhs.vec == {n: sgn * c0 for n, c0 in rhs.vec.items()}


def _check_action_leibniz(alg, c_sig, c_name, xs) -> bool:
    op = alg.operad
    F = alg.field
    ins, out = c_sig
    lhs = alg.carrier[out].apply_d(alg.theta_basis(c_sig, c_name, tuple(xs)))
    rhs = {}
    sgn = F.one
    for i, x_name in enumerate(xs):
        dx = alg.carrier[ins[i]].apply_d({x_name: F.one})
        for nm, cf in dx.items():
            terms = list(xs)
            terms[i] = nm
            vec_iaxpy(rhs, sgn * cf, alg.theta_basis(c_sig, c_name, tuple(terms)))
        if alg.carrier_degree(ins[i], x_name) % 2:
            sgn = -sgn
    dc = op.components[c_sig].apply_d({c_name: F.one})
    for nm, cf in dc.items():
        vec_iaxpy(rhs, sgn * cf, alg.theta_basis(c_sig, nm, tuple(xs)))
    return lhs == rhs

