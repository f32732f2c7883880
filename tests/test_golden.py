"""Golden reports, frozen byte for byte: the validate, dstruct and
roundtrip reports on the shipped manifest and on the two-sorted pair over
Q, the bar and homology reports on the shipped dual numbers at window 5,
the bar report on the dual numbers at window 6 with cap 4, the
dstruct and roundtrip reports on the dual numbers at window 4, where
roundtrip skips the coinvariant parts of the D-structure as too large,
and the dstruct and roundtrip reports on the two-sorted pair over F3 at
window 2, the one golden window whose induced differential closes, so
that every free-algebra part of the window is walked to its end, and
the bar, homology and roundtrip reports on the unit operad over Q at
window 5, the one golden whose evaluation rows cover stable degrees, so
that their source and target dimensions and induced ranks are locked,
and the dstruct report on the dual numbers at window 5, whose induced
differential closes, so that every window column is built and read
through the per-word splitting memo.
Every file under ``golden/`` belongs to one entry of ``MANIFESTS``.

A golden file that a benchmark workload pins must also hash to the
report digest in ``perfbench/pins.json``, so the lock and the benchmark
guard the same bytes; one that no workload pins is checked byte for
byte only.  Regenerate a golden file only from a commit whose reports
are trusted:

    PYTHONPATH=src python -m kzbar.cli SUITE MANIFEST --out tests/golden/NAME.SUITE.json
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kzbar.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
PINS = GOLDEN.parent.parent / "perfbench" / "pins.json"

# golden name -> (manifest argument, benchmark workload pinning it or
# None, suites)
MANIFESTS = {
    "uass_dual_numbers": ("uass_dual_numbers", "dual-w3",
                          ("validate", "dstruct", "roundtrip")),
    "pair_q_w3": (str(GOLDEN / "pair_q_w3.kz"), "pair-q-w3",
                  ("validate", "dstruct", "roundtrip")),
    "bar_w5": (str(GOLDEN / "bar_w5.kz"), "bar-w5", ("bar", "homology")),
    "bar_w6": (str(GOLDEN / "bar_w6.kz"), None, ("bar",)),
    "dual_w5": (str(GOLDEN / "bar_w5.kz"), None, ("dstruct",)),
    "dual_w4": (str(GOLDEN / "dual_w4.kz"), None, ("dstruct", "roundtrip")),
    "pair_f3_w2": (str(GOLDEN / "pair_f3_w2.kz"), None, ("dstruct", "roundtrip")),
    "unit_w5": (str(GOLDEN / "unit_w5.kz"), None, ("bar", "homology", "roundtrip")),
}
CASES = [(name, suite) for name, (_, _, suites) in sorted(MANIFESTS.items())
         for suite in suites]


@pytest.mark.parametrize("name,suite", CASES)
def test_report_matches_golden_bytes(name, suite, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("KZ_SEED", raising=False)
    manifest, workload, _ = MANIFESTS[name]
    out = tmp_path / "report.json"
    assert main([suite, manifest, "--out", str(out)]) == 0
    capsys.readouterr()
    golden = (GOLDEN / f"{name}.{suite}.json").read_bytes()
    assert out.read_bytes() == golden
    if workload is None:
        return
    pins = json.loads(PINS.read_text())
    assert hashlib.sha256(golden).hexdigest() == pins[workload]["reports"][suite]


@pytest.mark.parametrize("hash_seed", ["0", "1", "random"])
@pytest.mark.parametrize("name,suite", [
    ("bar_w5", "bar"), ("bar_w5", "homology"), ("pair_q_w3", "dstruct")])
def test_reports_do_not_depend_on_string_hashing(name, suite, hash_seed):
    """Key ids, rank columns and memo orders follow first sight, not
    hashes: a fresh interpreter under any PYTHONHASHSEED writes the
    golden bytes."""
    env = {k: v for k, v in os.environ.items() if k != "KZ_SEED"}
    env.update(PYTHONHASHSEED=hash_seed, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(GOLDEN.parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "kzbar.cli", suite, MANIFESTS[name][0]],
        env=env, capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / f"{name}.{suite}.json").read_bytes()


def test_every_golden_file_is_checked():
    """A file under golden/ is a report of a MANIFESTS case or the
    manifest file one of them reads, so no golden sits there unchecked."""
    expected = {f"{name}.{suite}.json" for name, suite in CASES}
    expected |= {Path(manifest).name for manifest, _, _ in MANIFESTS.values()
                 if Path(manifest).parent == GOLDEN}
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(expected)
