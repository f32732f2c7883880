"""Start-up: a ``kz`` process imports only the layers its suite runs, and
no module generates classes at import.  Every case runs in a fresh
interpreter, because this test process has imported every layer."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BAR_W5 = str(ROOT / "tests" / "golden" / "bar_w5.kz")
SNAP = "import sys; print('MODULES', *sorted(sys.modules))\n"


def _python(*argv: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on src/ that writes no bytecode, so perfbench/
    stays as it is."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


def _snapshots(code: str) -> list[set[str]]:
    """The module names a fresh interpreter holds at each ``SNAP`` in
    code."""
    return [set(line.split()[1:]) for line in _python("-c", code).stdout.splitlines()
            if line.startswith("MODULES")]


def _suite_modules(suite: str, manifest: str, tmp_path: Path) -> set[str]:
    out = str(tmp_path / f"{suite}.json")
    code = ("from kzbar.cli import main\n"
            f"assert main([{suite!r}, {manifest!r}, '--out', {out!r}]) == 0\n"
            + SNAP)
    [mods] = _snapshots(code)
    return mods


def test_importing_the_cli_generates_no_classes():
    [mods] = _snapshots("import kzbar.cli\n" + SNAP)
    assert "kzbar.cli" in mods
    assert "dataclasses" not in mods


def test_validate_loads_no_tree_bar_or_dstructure_layer(tmp_path):
    mods = _suite_modules("validate", "uass_dual_numbers", tmp_path)
    assert {"kzbar.operads", "kzbar.algebras"} <= mods
    loaded = {"kzbar.trees", "kzbar.signs", "kzbar.bar",
              "kzbar.dstructures"} & mods
    assert not loaded
    assert "dataclasses" not in mods


@pytest.mark.parametrize("suite", ["bar", "homology"])
def test_bar_suites_load_no_dstructure_layer(suite, tmp_path):
    mods = _suite_modules(suite, BAR_W5, tmp_path)
    assert "kzbar.bar" in mods
    assert "kzbar.dstructures" not in mods
    assert "dataclasses" not in mods


def test_a_build_loads_the_dstructure_layer_at_the_first_read():
    code = ("from pathlib import Path\n"
            "from kzbar.manifest import build, parse_manifest\n"
            f"b = build(parse_manifest(Path({BAR_W5!r}).read_text()))\n"
            "assert list(b.dstructures) == ['bardual']\n"
            + SNAP +
            "b.dstructures['bardual']\n"
            + SNAP)
    built, read = _snapshots(code)
    assert "kzbar.dstructures" not in built
    assert "kzbar.dstructures" in read


@pytest.mark.parametrize("suite,manifest", [("bar", BAR_W5),
                                            ("dstruct", "uass_dual_numbers")])
def test_the_benchmark_trace_outlives_layers_first_imported_under_it(
        suite, manifest, tmp_path):
    """perfbench/kztrace.py installs its wrappers right after importing
    kzbar.cli, so the bar and D-structure layers are first imported under
    the trace.  It refuses to finish if any module still holds a wrapper
    once the trace is removed, and the report must be the untraced one."""
    trace = tmp_path / "trace.json"
    traced = _python(str(ROOT / "perfbench" / "kztrace.py"), str(trace),
                     suite, manifest)
    plain = _python("-m", "kzbar.cli", suite, manifest)
    assert traced.stdout == plain.stdout
    assert '"trees.canonical_form"' in trace.read_text()
