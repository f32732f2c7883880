"""Reference coinvariants: walk every word's diagonal orbit.

Each word of X^{(x)n} (x) O(n) is pushed through its whole diagonal
Sigma_n orbit one adjacent transposition at a time, with boxed scalar
signs.  An orbit that meets one word with two signs is torsion and dies
(outside characteristic 2); every other orbit keeps its str-least word
as representative.  This is slow and shares no code with the label
transversal in ``kzbar.algebras``; the tests compare the two.
"""

from __future__ import annotations

from itertools import product


def big_words(fa, n: int, out_sort: str) -> list:
    out = []
    for sig in fa.operad.arity_signatures(n):
        ins = sig[0]
        if sig[1] != out_sort or any(s not in fa.generators for s in ins):
            continue
        pools = [sorted(fa.generators[s].degrees, key=str) for s in ins]
        labels = sorted(fa.operad.components[sig].degrees, key=str)
        for xw in product(*pools):
            out.extend((sig, xw, c) for c in labels)
    return out


def _swap(fa, word, k: int):
    """s_k . word as (image word, coefficient); the action must be monomial."""
    sig, xw, c_name = word
    F = fa.field
    da = fa.generators[sig[0][k - 1]].degrees[xw[k - 1]]
    db = fa.generators[sig[0][k]].degrees[xw[k]]
    sgn = -F.one if da % 2 and db % 2 else F.one
    xw2 = xw[:k - 1] + (xw[k], xw[k - 1]) + xw[k + 1:]
    sig2, cvec = fa.operad.apply_transposition(sig, k, {c_name: F.one})
    ((nm, cf),) = cvec.items()
    return (sig2, xw2, nm), sgn * cf


def _add(vec: dict, key, c) -> None:
    s = vec.get(key)
    s = c if s is None else s + c
    if s.is_zero():
        vec.pop(key, None)
    else:
        vec[key] = s


def orbit_part(fa, n: int, out_sort: str = "*"):
    """(representatives, project, d columns) of one arity part."""
    F = fa.field
    rep_of: dict = {}
    dead: set = set()
    for start in sorted(big_words(fa, n, out_sort), key=str):
        if start in rep_of or start in dead:
            continue
        orbit = {start: F.one}
        frontier = [start]
        torsion = False
        while frontier:
            cur = frontier.pop()
            for k in range(1, n):
                nm, cf = _swap(fa, cur, k)
                nsgn = orbit[cur] * cf
                prev = orbit.get(nm)
                if prev is None:
                    orbit[nm] = nsgn
                    frontier.append(nm)
                elif prev != nsgn:
                    torsion = True
        if torsion and F.characteristic != 2:
            dead.update(orbit)
            continue
        rep = min(orbit, key=str)
        # g . start = orbit[w] w, so [w] = orbit[rep] / orbit[w] . [rep]
        for w, sgn in orbit.items():
            rep_of[w] = (rep, orbit[rep] / sgn)
    reps = sorted({r for r, _ in rep_of.values()}, key=str)

    def project(vec: dict) -> dict:
        out: dict = {}
        for w, cf in vec.items():
            hit = rep_of.get(w)
            if hit is not None:
                _add(out, hit[0], hit[1] * cf)
        return out

    d = {}
    for r in reps:
        sig, xw, c_name = r
        raw: dict = {}
        sgn = F.one
        for i, (s, x) in enumerate(zip(sig[0], xw)):
            for nm, cf in fa.generators[s].d.get(x, {}).items():
                _add(raw, (sig, xw[:i] + (nm,) + xw[i + 1:], c_name), sgn * cf)
            if fa.generators[s].degrees[x] % 2:
                sgn = -sgn
        for nm, cf in fa.operad.components[sig].d.get(c_name, {}).items():
            _add(raw, (sig, xw, nm), sgn * cf)
        col = project(raw)
        if col:
            d[r] = col
    return reps, project, d
