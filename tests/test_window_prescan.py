"""The window builder against its one-column-per-word reference, and what
the overflow pre-scan and the per-word memo of the induced differential
spare a run.

``window_oracle`` builds a column for every word the walk hands out, in
arity order, and raises at the first word that leaves the window, leaves
the operad's cap or changes sort.  ``build_delta_differential`` first
scans only the arities that can overflow; the two must agree on every
outcome: the degrees in order, the raw differential and the stable
degrees of a window that closes, or the exception type and message of
one that does not.  The grid holds windows that close, overflow and pass
the cap, with n_max above the cap too, on the orbit and the elimination
routes.  The golden manifests bar_w5 and bar_w6 are left out: their
windows do not fit the dstruct suite's part budget, so the suite never
builds them, and the reference would walk the 140,625 words of the
arity-2 part of bar_w5 alone.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

import window_oracle
from kzbar import KzbarError, dstructures
from kzbar.algebras import FreeAlgebra
from kzbar.catalog import (augmentation_module_pair, dual_numbers_algebra,
                           module_operad, uass_operad)
from kzbar.cli import main
from kzbar.complexes import ChainComplex
from kzbar.dstructures import DStructure, bar_dstructure, build_delta_differential
from kzbar.fields import GF, QQ, Scalar
from kzbar.manifest import build, load_builtin, parse_manifest
from kzbar.operads import Operad, single_sig
from suspension import suspended_dual_numbers
from test_algebras import recertified
from test_compose_paths import BAR_SOURCES

GOLDEN = Path(__file__).resolve().parent / "golden"
FIELDS = {"F2": GF(2), "F3": GF(3), "Q": QQ}


def _bar(algebra, n_max):
    return lambda: bar_dstructure(algebra(), n_max)


def _split_pair(field, n_max):
    """x splits into two even factors through an arity-2 label of uAss
    under the asserted certificate, so its parts take the elimination
    route; every window overflows at the first word holding x."""
    op = recertified(uass_operad(field, 3), "asserted")
    comp = ChainComplex(field, {"x": 1, "y": 0}, {})
    return DStructure(op, comp, {("*", "x"): {(single_sig(2), ("y", "y"), (1, 2)): field.one}})


def _manifest(arg):
    text = load_builtin(arg) if not arg.endswith(".kz") else (GOLDEN / arg).read_text()
    m = parse_manifest(text)
    (name,) = [d.name for d in m.dstructures]
    return lambda: build(m).dstructures[name], m.window.n_max


CASES: dict = {}
for f, F in FIELDS.items():
    for n in range(1, 5):
        for cap in range(2, 6):
            CASES[f"dual-{f}-n{n}-cap{cap}"] = (_bar(
                lambda F=F, cap=cap: dual_numbers_algebra(F, uass_operad(F, cap)), n), n)
for f in ("F3", "Q"):
    for n in range(1, 5):
        for cap in (3, 4):
            CASES[f"suspended-{f}-n{n}-cap{cap}"] = (_bar(
                lambda F=FIELDS[f], cap=cap: suspended_dual_numbers(F, cap), n), n)
    for n in range(1, 4):
        for cap in (3, 4):
            CASES[f"pair-{f}-n{n}-cap{cap}"] = (_bar(
                lambda F=FIELDS[f], cap=cap: augmentation_module_pair(F, module_operad(F, cap)),
                n), n)
for n in (1, 2):
    CASES[f"elimination-dual-Q-n{n}"] = (_bar(
        lambda: dual_numbers_algebra(QQ, recertified(uass_operad(QQ, 4), "asserted")), n), n)
    CASES[f"elimination-split-F3-n{n}"] = (lambda n=n: _split_pair(GF(3), n), n)
for arg in ("uass_dual_numbers", "pair_f3_w2.kz", "pair_q_w3.kz", "unit_w5.kz", "dual_w4.kz"):
    CASES[f"golden-{arg}"] = _manifest(arg)


def _outcome(build_window, ds, n_max):
    try:
        window = build_window(ds, n_max)
    except KzbarError as e:
        return type(e), str(e)
    return ({srt: (list(c.degrees.items()), c.raw_d) for srt, c in window.carrier.items()},
            window.stable)


@pytest.mark.parametrize("case", list(CASES))
def test_the_prescan_matches_the_column_by_column_build(case):
    make, n_max = CASES[case]
    got = _outcome(build_delta_differential, make(), n_max)
    assert got == _outcome(window_oracle.build_delta_differential, make(), n_max)


def test_the_grid_closes_overflows_and_passes_the_cap():
    kinds = {case: _outcome(build_delta_differential, CASES[case][0](), CASES[case][1])[0]
             for case in ("dual-F2-n2-cap4", "dual-F2-n3-cap4", "dual-F3-n4-cap3",
                          "elimination-split-F3-n2", "golden-unit_w5.kz")}
    assert isinstance(kinds["dual-F2-n2-cap4"], dict)
    assert kinds["dual-F2-n3-cap4"] is dstructures.DStructureError
    assert kinds["dual-F3-n4-cap3"] is dstructures.CapExceeded  # n_max above the cap
    assert kinds["elimination-split-F3-n2"] is dstructures.DStructureError
    assert isinstance(kinds["golden-unit_w5.kz"], dict)  # closes with n_max 5 > cap 1


# ------------------------------------------------------------------ guards


def _count_words_in_build(monkeypatch) -> tuple[list, Counter, list]:
    """Record the window columns built, the words whose induced
    differential is computed (each computation differentiates its word
    once) and those computed inside build_delta_differential."""
    columns, words, in_build = [], Counter(), []
    inside = [False]
    real_build, real_column = dstructures.build_delta_differential, dstructures._window_column
    real_word_d = FreeAlgebra.word_d

    def building(ds, n_max):
        inside[0] = True
        try:
            return real_build(ds, n_max)
        finally:
            inside[0] = False

    def column(*args):
        columns.append(args[-1])
        return real_column(*args)

    def word_d(self, big):
        words[big] += 1
        if inside[0]:
            in_build.append(big)
        return real_word_d(self, big)

    monkeypatch.setattr(dstructures, "build_delta_differential", building)
    monkeypatch.setattr(dstructures, "_window_column", column)
    monkeypatch.setattr(FreeAlgebra, "word_d", word_d)
    return columns, words, in_build


def test_an_open_window_builds_no_column(monkeypatch, tmp_path, capsys):
    """dstruct on the shipped manifest scans the arity-3 words up to the
    10th, the first to overflow, and builds no column of the 353 the
    window has below it."""
    columns, _, in_build = _count_words_in_build(monkeypatch)
    out = tmp_path / "report.json"
    assert main(["dstruct", "uass_dual_numbers", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / "uass_dual_numbers.dstruct.json").read_bytes()
    assert columns == []
    assert len(in_build) == len(set(in_build)) == 10
    assert {len(big[1]) for big in in_build} == {3}


@pytest.mark.parametrize("name,manifest", [
    ("uass_dual_numbers", "uass_dual_numbers"),
    ("pair_f3_w2", str(GOLDEN / "pair_f3_w2.kz")),
    ("pair_q_w3", str(GOLDEN / "pair_q_w3.kz")),
    ("dual_w5", str(GOLDEN / "bar_w5.kz"))])
def test_a_dstruct_run_computes_each_words_differential_once(
        name, manifest, monkeypatch, tmp_path, capsys):
    _, words, _ = _count_words_in_build(monkeypatch)
    out = tmp_path / "report.json"
    assert main(["dstruct", manifest, "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / f"{name}.dstruct.json").read_bytes()
    assert words and max(words.values()) == 1


@pytest.mark.parametrize("n_max", [2, 3])
@pytest.mark.parametrize("source", sorted(BAR_SOURCES))
def test_a_cold_window_build_builds_no_scalar(source, n_max, monkeypatch):
    """On a fresh D-structure, whose memo is empty, the window build
    constructs no Scalar and reads no boxed table.  Another D-structure
    on the same algebra fills the operad's tables first, since its rules
    answer in Scalars."""
    alg = BAR_SOURCES[source]()
    want = _outcome(build_delta_differential, bar_dstructure(alg, n_max), n_max)
    ds = bar_dstructure(alg, n_max)
    counts = Counter()

    def counting(name, owner, attr):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counting("Scalar", Scalar, "__init__")
    counting("gamma_basis", Operad, "gamma_basis")
    assert _outcome(build_delta_differential, ds, n_max) == want
    assert counts == {}
    # the wrapper does count: the boxed view of a column builds Scalars
    if isinstance(want[0], dict):
        build_delta_differential(ds, n_max).carrier[ds.operad.sorts[0]].d
        assert counts["Scalar"] > 0
