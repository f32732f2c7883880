"""Command line: report shape, frozen counts, byte stability, exit codes."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from kzbar.algebras import AlgebraElement
from kzbar.catalog import uass_operad
from kzbar.cli import DEFAULT_SEED, main, run, to_json, to_text
from kzbar.fields import QQ
from kzbar.manifest import load_builtin, parse_manifest
from kzbar.operads import Operad, OperadElement, single_sig
from kzbar.trees import enumerate_trees

UNIT = """\
field Q
sorts *
cap 1
window 5 : -2 .. 6

operad one
  use unit-operad

algebra k
  use ground
  operad one

dstructure chains
  from bar
  algebra k
"""

PAIR = """\
field F3
sorts a m
cap 3
window 2 : -1 .. 3

operad pattern
  use module-operad

algebra pair
  use augmentation-module-pair
  operad pattern

dstructure barpair
  from bar
  algebra pair
"""


@pytest.fixture
def unit_path(tmp_path):
    p = tmp_path / "unit.kz"
    p.write_text(UNIT)
    return str(p)


@pytest.fixture
def pair_path(tmp_path):
    p = tmp_path / "pair.kz"
    p.write_text(PAIR)
    return str(p)


def _json_run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ------------------------------------------------------------ commands


def test_trees_counts_and_class_counts(capsys):
    code, rep = _json_run(
        capsys, ["trees", "uass_dual_numbers", "3", "--classes"])
    assert code == 0
    rows = {r["vertices"]: r for r in rep["tables"]["trees"]}
    assert rows[3]["classes"] == 5
    for k in (1, 2, 3):
        assert rows[k]["planar"] == len(enumerate_trees(k))
    assert rep["args"] == {"n": 3, "classes": True}


def test_trees_counts_two_sorted_trees_and_classes(capsys):
    golden = str(Path(__file__).parent / "golden" / "pair_q_w3.kz")
    code, rep = _json_run(capsys, ["trees", golden, "5", "--classes"])
    assert code == 0
    rows = rep["tables"]["trees"]
    assert [r["planar"] for r in rows] == [4, 8, 48, 352, 2880]
    assert [r["classes"] for r in rows] == [4, 8, 36, 176, 942]


def test_trees_counts_sorted_planar_trees_without_building_them(
        capsys, monkeypatch):
    """The planar count is the shape count times the sort assignments,
    so kz trees never asks for sorted planar trees: on two sorts there
    are 231,168 of them at 7 vertices.  The suite imports the tree
    layer when it runs, so the recorder replaces the name there."""
    import kzbar.trees as trees

    asked = []
    enumerate_all = trees.enumerate_trees

    def recording(n, up_to_equiv=False, sorts=None):
        asked.append((n, up_to_equiv, sorts))
        return enumerate_all(n, up_to_equiv, sorts)

    monkeypatch.setattr(trees, "enumerate_trees", recording)
    golden = str(Path(__file__).parent / "golden" / "pair_q_w3.kz")
    code, rep = _json_run(capsys, ["trees", golden, "7"])
    assert code == 0
    assert rep["tables"]["trees"][-1] == {"vertices": 7, "planar": 231_168}
    assert asked
    assert [a for a in asked if a[2] is not None and not a[1]] == []


def test_trees_rejects_a_nonpositive_bound(capsys):
    code, rep = _json_run(capsys, ["trees", "uass_dual_numbers", "0"])
    assert code == 1
    assert rep["checks"][0]["outcome"] == "fail"
    assert "must be positive" in rep["checks"][0]["witness"]


def test_trees_reports_the_enumeration_cap(capsys):
    code, rep = _json_run(capsys, ["trees", "uass_dual_numbers", "12"])
    assert code == 1
    assert "cap" in rep["checks"][0]["witness"]


def test_validate_builtin_passes_with_clipped_exhaustion(capsys):
    code, rep = _json_run(capsys, ["validate", "uass_dual_numbers"])
    assert code == 0
    notes = {c["name"]: c["note"] for c in rep["checks"]}
    assert any("exhaustive at cap 3" in n for n in notes.values())
    assert any("seed" in n for n in notes.values())
    assert all(c["outcome"] == "pass" for c in rep["checks"])


def test_validate_honors_the_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("KZ_SEED", "7")
    code, rep = _json_run(capsys, ["validate", "uass_dual_numbers"])
    assert code == 0
    assert rep["seed"] == 7


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_validate_refuses_a_verify_cap_below_one(capsys, cap):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "uass_dual_numbers", f"--verify-cap={cap}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: argument --verify-cap: must be at least 1, not {cap}\n")


def test_bar_unit_window_has_the_ground_field_in_degree_zero(
        capsys, unit_path):
    code, rep = _json_run(capsys, ["bar", unit_path])
    assert code == 0
    assert all(c["outcome"] == "pass" for c in rep["checks"])
    table = rep["tables"]["bar"]["k"]
    assert table["stable_degrees"] != []
    dims = {row["degree"]: row["dim"] for row in table["homology"]}
    assert dims[0] == 1
    assert all(d == 0 for deg, d in dims.items() if deg != 0)
    assert all(row["isomorphism"] for row in table["evaluation"])


def test_bar_report_is_byte_stable_across_runs(capsys):
    main(["bar", "uass_dual_numbers"])
    first = capsys.readouterr().out
    main(["bar", "uass_dual_numbers"])
    assert capsys.readouterr().out == first
    main(["bar", "uass_dual_numbers"])
    assert capsys.readouterr().out == first


def test_benchmark_trace_installs_and_keeps_the_report(capsys, monkeypatch,
                                                       unit_path):
    """perfbench/kztrace.py wraps kzbar functions by name from outside
    src/, so a rename that breaks the benchmark trace fails here.  bar
    runs the bar layer, whose tree plans must reach canonical_form
    through the tree module's global for the trace to see them; dstruct runs
    the FreeAlgebra.part hook, which reads the attributes of a part."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ stays as is
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    kztrace = importlib.import_module("kztrace")
    plain = {}
    for suite in ("bar", "dstruct"):
        assert main([suite, unit_path]) == 0
        plain[suite] = capsys.readouterr().out
    tracer = kztrace.Tracer()
    with tracer.installed():
        for suite in ("bar", "dstruct"):
            assert main([suite, unit_path]) == 0
            assert capsys.readouterr().out == plain[suite]
            if suite == "bar":
                stats = tracer.summary()["stats"]
                assert stats["trees.canonical_form"]["calls"] > 0
                assert stats["bar.BarComplex.normalize_term"]["calls"] > 0
    stats = tracer.summary()["stats"]
    assert stats["cli.run"]["calls"] == 2
    assert stats["bar.BarComplex.differential_key"]["calls"] > 0
    assert stats["operads.Operad.gamma_basis"]["calls"] > 0
    part = stats["algebras.FreeAlgebra.part"]
    assert part["calls"] > 0
    assert part["big_words"] >= part["reps"] > 0


def test_suites_compose_without_boxing(monkeypatch, capsys, unit_path):
    """bar, homology, dstruct and roundtrip build no element and unbox
    nothing: every composition inside them reads the tables."""
    counts = {"OperadElement": 0, "AlgebraElement": 0, "Operad._unbox": 0}

    def counting(name, owner, attr):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counting("OperadElement", OperadElement, "__init__")
    counting("AlgebraElement", AlgebraElement, "__init__")
    counting("Operad._unbox", Operad, "_unbox")
    for manifest in ("uass_dual_numbers", unit_path):
        for suite in ("bar", "homology", "dstruct", "roundtrip"):
            assert main([suite, manifest]) == 0
            capsys.readouterr()
    assert counts == {"OperadElement": 0, "AlgebraElement": 0, "Operad._unbox": 0}
    # the wrappers do count: the element API still boxes at the edge
    op = uass_operad(QQ, 2)
    op.gamma_j(1, op.unit(), op.basis_element(single_sig(2), (1, 2)))
    assert counts["OperadElement"] > 0 and counts["Operad._unbox"] > 0


def test_window_beyond_the_enumeration_cap_exits_two(capsys, tmp_path):
    p = tmp_path / "wide.kz"
    p.write_text(load_builtin("uass_dual_numbers").replace(
        "window 3 : -1 .. 3", "window 10 : -1 .. 3"))
    code = main(["bar", str(p)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 5, col 8: window size 10 exceeds the tree enumeration cap 9" in err


def test_homology_builtin_tables(capsys):
    code, rep = _json_run(capsys, ["homology", "uass_dual_numbers"])
    assert code == 0
    entry = rep["tables"]["homology"]["dual"]
    carrier = {r["degree"]: r["dim"] for r in entry["carrier"]["*"]}
    assert carrier == {0: 2}
    assert {r["degree"] for r in entry["bar_window"]} <= set(range(-1, 4))


@pytest.mark.parametrize("suite", ["homology", "bar"])
def test_a_quotient_window_whose_square_is_not_zero_fails_the_check(
        suite, capsys, monkeypatch):
    import kzbar.cli as cli
    from kzbar.linalg import raw_iaxpy
    from kzbar.manifest import build

    def corrupted_build(m, cap=None):
        """Build, then add to the memoized d of one window key a key one
        degree lower whose own d is not zero, so that d*d is not zero."""
        built = build(m, cap)
        B = built.algebras["dual"].bar
        w = m.window
        q = B.bar_quotient(w.n_max, w.deg_lo, w.deg_hi)
        low = next(k for k in q.basis() if q.d.get(k))
        top = next(k for k in q.basis() if q.degrees[k] == q.degrees[low] + 1)
        col = dict(B.differential_key(top))
        one = B.field.one.val  # the memo holds raw values
        raw_iaxpy(col, one, {low: one}, B.field.p)
        B._d_memo[top] = col
        return built

    monkeypatch.setattr(cli, "build", corrupted_build)
    code, rep = _json_run(capsys, [suite, "uass_dual_numbers"])
    assert code == 1
    by_name = {c["name"]: c for c in rep["checks"]}
    window = by_name[f"{suite} dual: window differential squares to zero"]
    assert window["outcome"] == "fail"
    assert window["witness"].startswith("d*d != 0 on basis element")


def test_validate_builds_no_dstructure(capsys, tmp_path):
    # the clipped build has cap 3, which cannot carry the bar D-structure
    # at window 6; validate checks only operads and algebras, so it passes
    p = tmp_path / "w6.kz"
    p.write_text(load_builtin("uass_dual_numbers").replace(
        "window 3 : -1 .. 3", "window 6"))
    code, rep = _json_run(capsys, ["validate", str(p)])
    assert code == 0
    assert all(c["outcome"] == "pass" for c in rep["checks"])


def _past_the_cap(tmp_path, with_dstructure: bool) -> str:
    # cap 4 carries windows up to 6: at window 7 an edge contraction
    # composes two labels into arity 5, which the bar differential may not
    # drop, so the run stops on the cap instead of failing d*d
    text = load_builtin("uass_dual_numbers").replace(
        "window 3 : -1 .. 3", "window 7")
    if not with_dstructure:
        text = text[:text.index("dstructure bardual")]
    p = tmp_path / "w7.kz"
    p.write_text(text)
    return str(p)


@pytest.mark.parametrize("with_dstructure,code", [(True, 2), (False, 3)])
def test_a_window_past_the_cap_fails_naming_the_cap(
        capsys, tmp_path, with_dstructure, code):
    # dstruct reads the section, which cannot be built (exit 2); without
    # one, bar stops on the cap itself (exit 3)
    suite = "dstruct" if with_dstructure else "bar"
    assert main([suite, _past_the_cap(tmp_path, with_dstructure)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "gamma result arity 5 exceeds cap 4" in captured.err
    assert ("dstructure section 'bardual' could not be built"
            in captured.err) == with_dstructure
    assert "d*d" not in captured.err


@pytest.mark.parametrize("suite,with_dstructure", [
    ("bar", True), ("homology", True), ("homology", False)])
def test_bar_and_homology_past_the_cap_stop_on_the_bar_complex(
        capsys, tmp_path, suite, with_dstructure):
    """bar and homology read no D-structure, so a section that cannot be
    built changes nothing: they stop on the cap with exit 3."""
    assert main([suite, _past_the_cap(tmp_path, with_dstructure)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "gamma result arity 5 exceeds cap 4" in captured.err
    assert "could not be built" not in captured.err


def test_roundtrip_reads_a_section_that_cannot_be_built_first(
        capsys, tmp_path):
    assert main(["roundtrip", _past_the_cap(tmp_path, True)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("dstructure section 'bardual' could not be built: gamma result "
            "arity 5 exceeds cap 4") in captured.err


def test_dstruct_builtin_surfaces_the_window_overflow(capsys):
    code, rep = _json_run(capsys, ["dstruct", "uass_dual_numbers"])
    assert code == 0
    by_name = {c["name"]: c for c in rep["checks"]}
    nil = by_name["dstructure bardual: induced differential squares to zero"]
    assert nil["outcome"] == "pass"
    assert "window arity 3 too small" in nil["note"]
    assert "reaches arity 4" in nil["note"]
    assert all(c["outcome"] == "pass" for c in rep["checks"])


def test_dstruct_window_past_the_operad_cap_is_a_note(capsys, tmp_path):
    p = tmp_path / "cap3.kz"
    p.write_text(load_builtin("uass_dual_numbers").replace("cap 4", "cap 3"))
    code, rep = _json_run(capsys, ["dstruct", str(p)])
    assert code == 0
    by_name = {c["name"]: c for c in rep["checks"]}
    nil = by_name["dstructure bardual: induced differential squares to zero"]
    assert nil["note"] == ("window does not close: "
                           "gamma result arity 4 exceeds cap 3")
    assert len(rep["checks"]) == 3
    assert all(c["outcome"] == "pass" for c in rep["checks"])


def test_dstruct_unit_certifies_the_complete_window(capsys, unit_path):
    code, rep = _json_run(capsys, ["dstruct", unit_path])
    assert code == 0
    notes = [c["note"] for c in rep["checks"]]
    assert any("complete window complex" in n for n in notes)


def test_roundtrip_builtin_passes_with_the_evidence_table(capsys):
    code, rep = _json_run(capsys, ["roundtrip", "uass_dual_numbers"])
    assert code == 0
    assert all(c["outcome"] == "pass" for c in rep["checks"])
    table = rep["tables"]["roundtrip"]
    assert table["dual"]["dimension"] == 16
    assert "window does not close" in table["bardual"]["note"]


def test_roundtrip_unit_runs_both_directions(capsys, unit_path):
    code, rep = _json_run(capsys, ["roundtrip", unit_path])
    assert code == 0
    names = [c["name"] for c in rep["checks"]]
    assert any("counit intertwines" in n for n in names)
    assert any("counit is an equivalence" in n for n in names)
    ev = rep["tables"]["roundtrip"]["chains"]["evaluation"]
    assert ev and all(row["isomorphism"] for row in ev)


def test_two_sorted_manifest_through_every_command(capsys, pair_path):
    for argv in (["validate", pair_path], ["bar", pair_path],
                 ["homology", pair_path], ["dstruct", pair_path],
                 ["roundtrip", pair_path]):
        code, rep = _json_run(capsys, argv)
        assert code == 0, argv[0]
        assert all(c["outcome"] == "pass" for c in rep["checks"]), argv[0]


# ------------------------------------------------------------ plumbing


def test_report_shape_and_timing_policy(capsys):
    _, rep = _json_run(capsys, ["validate", "uass_dual_numbers"])
    assert set(rep) == {"command", "manifest", "args", "seed", "ok",
                       "timing", "checks", "tables"}
    assert rep["manifest"].startswith("sha256:")
    assert rep["seed"] == DEFAULT_SEED
    assert "stderr" in rep["timing"]


def test_text_format_lines(capsys, unit_path):
    code = main(["bar", unit_path, "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[-1] == "ok"
    assert any(ln.startswith("PASS ") for ln in out.splitlines())


def test_text_format_shows_witnesses(capsys):
    main(["trees", "uass_dual_numbers", "0", "--format", "text"])
    out = capsys.readouterr().out
    assert "FAIL" in out and "witness:" in out
    assert out.splitlines()[-1] == "FAILED"


def test_out_writes_the_report_file(capsys, tmp_path, unit_path):
    target = tmp_path / "report.json"
    code = main(["homology", unit_path, "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["ok"] is True


def test_missing_manifest_exits_two(capsys):
    code = main(["validate", "no-such-file.kz"])
    err = capsys.readouterr().err
    assert code == 2
    assert "no builtin manifest" in err


def test_parse_error_exits_two_with_position(capsys, tmp_path):
    p = tmp_path / "bad.kz"
    p.write_text("cap 3\n")
    code = main(["validate", str(p)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 1, col 1" in err


def test_internal_error_exits_three_without_a_traceback(capsys, monkeypatch):
    import kzbar.cli as cli
    from kzbar.bar import BarError

    def broken(*args, **kwargs):
        raise BarError("mu lives on the quotient; bare term given")

    monkeypatch.setattr(cli, "run", broken)
    code = main(["bar", "uass_dual_numbers"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("uass_dual_numbers: mu lives on the quotient; "
                            "bare term given\n")


@pytest.mark.parametrize("module,name", [
    ("operads", "OperadError"), ("operads", "CapExceeded"),
    ("trees", "TreeError"), ("bar", "BarError"),
    ("dstructures", "DStructureError"), ("algebras", "AlgebraError"),
    ("complexes", "ComplexError")])
def test_every_layer_error_exits_three_with_its_own_message(
        capsys, monkeypatch, module, name):
    """main catches the layers' errors through their common base, so it
    need not import a layer its suite never ran; each one still exits 3
    with its bare message, unlike an exception from outside kzbar."""
    import kzbar.cli as cli

    error = getattr(importlib.import_module(f"kzbar.{module}"), name)

    def broken(*args, **kwargs):
        raise error(["went wrong"]) if name == "TreeError" else error("went wrong")

    monkeypatch.setattr(cli, "run", broken)
    code = main(["validate", "uass_dual_numbers"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "uass_dual_numbers: went wrong\n"


def test_an_unexpected_exception_exits_three_naming_the_suite(
        capsys, monkeypatch):
    """An exception outside kzbar's own errors is a fault in kzbar, not
    a failed check (exit 1): it exits 3 with one line naming the suite
    and the exception."""
    import kzbar.cli as cli

    def broken(*args, **kwargs):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "run", broken)
    code = main(["bar", "uass_dual_numbers"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("uass_dual_numbers: internal error in bar: "
                            "KeyError: 'lost'\n")


def test_out_of_memory_exits_three_without_a_traceback(capsys, monkeypatch):
    """Running out of memory is not a failed check (exit 1): it exits 3
    with one line naming the suite."""
    import kzbar.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "_run_homology", exhausted)
    code = main(["homology", "uass_dual_numbers"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("uass_dual_numbers: out of memory in homology; "
                            "try a smaller window\n")


def test_unknown_command_is_an_argparse_error():
    with pytest.raises(SystemExit):
        main(["frobnicate", "uass_dual_numbers"])


def test_run_requires_a_bound_for_trees():
    m = parse_manifest(load_builtin("uass_dual_numbers"))
    with pytest.raises(ValueError, match="vertex bound"):
        run("trees", m)


def test_run_rejects_unknown_commands():
    m = parse_manifest(load_builtin("uass_dual_numbers"))
    with pytest.raises(ValueError, match="unknown command"):
        run("dance", m)


def test_renderers_agree_on_the_verdict(capsys):
    m = parse_manifest(load_builtin("uass_dual_numbers"))
    rep = run("validate", m)
    assert rep.ok
    assert json.loads(to_json(rep))["ok"] is True
    assert to_text(rep).splitlines()[-1] == "ok"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kzbar.cli", "trees", "uass_dual_numbers", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True
    assert "elapsed" in proc.stderr
