"""Reference window builder: one column per walked word, in arity order.

This is ``build_delta_differential`` as ``kzbar.dstructures`` wrote it
before the overflow pre-scan: the words are walked sort by sort, in
arity order and then in str order, and each word's column is built as
the walk hands it out, so the first word whose induced differential
leaves the window, leaves the operad's cap or changes sort raises.  It
reads the induced differential through ``DStructure.delta_terms``, so
give it a D-structure of its own: the one under test then starts with
an empty memo.
"""

from __future__ import annotations

from kzbar.complexes import ChainComplex
from kzbar.dstructures import DeltaWindow, DStructureError, _stable_for


def build_delta_differential(ds, n_max: int) -> DeltaWindow:
    carrier = {}
    for srt in ds.operad.sorts:
        degs: dict = {}
        cols: dict = {}
        for n in range(0, n_max + 1):
            for rep, deg in ds.free.part(n, srt).walk():
                degs[(n, rep)] = deg
                raw = ds.delta_terms(rep)
                over = sorted({len(b[1]) for b in raw if len(b[1]) > n_max})
                if over:
                    raise DStructureError(
                        f"window arity {n_max} too small: the differential "
                        f"of {(n, rep)!r} (sort {srt!r}) reaches arity {over[0]}")
                col: dict = {}
                for tgt_srt, vec in ds.project(raw).items():
                    if tgt_srt != srt:
                        raise DStructureError(
                            f"differential of {(n, rep)!r} changed sort to {tgt_srt!r}")
                    col = vec
                if col:
                    cols[(n, rep)] = col
        carrier[srt] = ChainComplex.from_raw(ds.field, degs, cols)
    return DeltaWindow(ds, n_max, carrier, _stable_for(ds, n_max, carrier))
