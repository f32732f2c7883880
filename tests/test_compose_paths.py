"""One composition path: the induced differential and the free algebra
compose basis labels through the structure-constant tables.

``delta_terms`` composes each slot's splitting through
``FreeAlgebra.compose``, which pays the crossing sign; the oracle pays it
itself through ``gamma_j`` and ``koszul_sign``.  The suspended dual
numbers have odd labels, so they are where a wrong sign would show.
"""

from __future__ import annotations

import pytest

import delta_oracle
from kzbar.catalog import augmentation_module_pair, dual_numbers_algebra, module_operad, uass_operad
from kzbar.dstructures import bar_dstructure
from kzbar.fields import GF, QQ
from kzbar.operads import single_sig
from suspension import suspended_dual_numbers

BAR_SOURCES = {
    "suspended-F3": lambda: suspended_dual_numbers(GF(3), 4),
    "suspended-Q": lambda: suspended_dual_numbers(QQ, 4),
    "dual-F2": lambda: dual_numbers_algebra(GF(2), uass_operad(GF(2), 4)),
    "pair-Q": lambda: augmentation_module_pair(QQ, module_operad(QQ, 3)),
}


def _words(ds, max_arity: int):
    for srt in ds.operad.sorts:
        for n in range(max_arity + 1):
            for big, _ in ds.free._iter_words(n, srt):
                yield big


@pytest.mark.parametrize("source", sorted(BAR_SOURCES))
def test_delta_terms_match_the_partial_composition_oracle(source):
    ds = bar_dstructure(BAR_SOURCES[source](), 3)
    compared = nonzero = 0
    for big in _words(ds, 2):
        got = ds.delta_terms(big)
        assert got == delta_oracle.delta_terms(ds, big), big
        compared += 1
        nonzero += bool(got)
    assert compared > 600 and nonzero > 600


def test_compose_ignores_the_insertion_order_of_its_inputs():
    ds = bar_dstructure(suspended_dual_numbers(QQ, 4), 3)
    free = ds.free
    words = [big for big in _words(ds, 2) if big[1]]
    one, two = [words[k:k + 6] for k in (5, 40)]
    vecs = [{w: QQ.scalar(j + 1) for j, w in enumerate(one)},
            {w: QQ.scalar(-2 * j - 1) for j, w in enumerate(two)}]
    backwards = [dict(reversed(list(v.items()))) for v in vecs]
    for c_name in ((1, 2), (2, 1)):
        got = free.compose(vecs, single_sig(2), c_name)
        assert len(got) > 6
        assert free.compose(backwards, single_sig(2), c_name) == got
