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
that their source and target dimensions and induced ranks are locked.
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


def test_every_golden_file_is_checked():
    """A file under golden/ is a report of a MANIFESTS case or the
    manifest file one of them reads, so no golden sits there unchecked."""
    expected = {f"{name}.{suite}.json" for name, suite in CASES}
    expected |= {Path(manifest).name for manifest, _, _ in MANIFESTS.values()
                 if Path(manifest).parent == GOLDEN}
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(expected)
