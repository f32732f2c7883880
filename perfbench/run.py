"""kzbar benchmark: wall time from ``kz <suite> <manifest>`` to a verified
report, on fixed manifest workloads, one ``kz`` process at a time.

Run from the repository root:

    python3 perfbench/run.py --workload bar-w5 --seed 271828 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --trace 1   # every workload, both runs

``--trace 0`` measures end to end: set-up time (a fresh interpreter
imports kzbar, parses and builds the manifest), then closed-loop cycles
of the workload's suites for ``--seconds``.  ``--trace 1`` runs each suite
once untraced and once under ``perfbench/kztrace.py`` and reports the
per-layer spans and counts.  Every call is checked against the report
digests pinned in ``perfbench/pins.json``; a call that exits non-zero,
returns other bytes or outruns ``--budget`` counts as failed.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = BENCH / ".out"
PINS = BENCH / "pins.json"
DEFAULT_SEED = 271828
SETUP_REPS = 5  # at least this many set-ups, for at least SETUP_SECONDS
SETUP_SECONDS = 3.0
RUN_LIMIT_S = 170.0  # a run must end well inside three minutes

SETUP_CODE = """\
import sys
from pathlib import Path
import kzbar
from kzbar.manifest import build, load_builtin, manifest_digest, parse_manifest
arg = sys.argv[1]
text = Path(arg).read_text() if Path(arg).exists() else load_builtin(arg)
m = parse_manifest(text)
b = build(m)
print(kzbar.__file__, manifest_digest(m), len(b.operads), len(b.algebras),
      len(b.dstructures))
"""


@dataclass(frozen=True)
class Workload:
    name: str
    manifest: str  # builtin manifest name, or a path from the repository root
    suites: tuple[str, ...]


WORKLOADS = {w.name: w for w in (
    # bar side: normalize_term, differential_key, trees and signs; no
    # free-algebra parts.
    Workload("bar-w5", "perfbench/manifests/bar-w5.kz", ("bar", "homology")),
    # what the README tells users to run; FreeAlgebra.part dominates.
    Workload("dual-w3", "uass_dual_numbers", ("validate", "dstruct", "roundtrip")),
    # same layers over Q with two sorts; run by hand and in the baseline,
    # not in BENCHMARK.json (see perfbench/README.md).
    Workload("pair-q-w3", "perfbench/manifests/pair-q-w3.kz",
             ("validate", "dstruct", "roundtrip")),
)}

E2E_UNITS = {"setup_s": "s", "verdict_s": "s", "peak_rss_mb": "MiB"}


@dataclass
class Call:
    wall: float
    rss_kb: int
    out: bytes
    error: str | None  # None when the call counts as a success


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def add(self, what: str, call: Call) -> Call:
        self.attempted += 1
        if call.error is not None:
            self.failed += 1
            self.errors.append(f"{what}: {call.error}")
        return call


class Runner:
    """Starts one child at a time under a per-call budget and a run limit."""

    def __init__(self, seed: int, budget: float) -> None:
        self.seed = seed
        self.budget = budget
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = {k: v for k, v in os.environ.items() if k != "KZ_THREADS"}
        self.env.update(PYTHONPATH=str(SRC), KZ_SEED=str(seed),
                        PYTHONHASHSEED="0")
        SCRATCH.mkdir(exist_ok=True)
        self.stdout = SCRATCH / f"stdout.{os.getpid()}"
        self.stderr = SCRATCH / f"stderr.{os.getpid()}"

    def call(self, argv: list[str]) -> Call:
        budget = min(self.budget, self.deadline - time.monotonic())
        if budget <= 0:
            return Call(0.0, 0, b"", "run limit reached before the call")
        done = False
        with open(self.stdout, "wb") as out, open(self.stderr, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT,
                                    env=self.env, stdout=out, stderr=err)
            try:
                fd = os.pidfd_open(proc.pid)
                try:
                    done = bool(select.select([fd], [], [], budget)[0])
                finally:
                    os.close(fd)
            finally:
                if not done:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            wall = time.perf_counter() - t0
        data = self.stdout.read_bytes()
        error = None
        if not done:
            error = f"over the {budget:g} s budget, killed"
        elif proc.returncode != 0:
            tail = self.stderr.read_text(errors="replace").strip()[-300:]
            error = f"exit {proc.returncode}: {tail}"
        return Call(wall, usage.ru_maxrss, data, error)

    def cleanup(self) -> None:
        for p in (self.stdout, self.stderr):
            p.unlink(missing_ok=True)


def canonical(report: bytes, seed: int) -> bytes:
    """The report bytes as the default seed would give them.

    ``KZ_SEED`` enters a report in the ``seed`` field and in the note of
    the sampled probes of ``validate``; every other byte is seed-free.
    """
    if seed == DEFAULT_SEED:
        return report
    return (report.replace(b'"seed": %d,' % seed, b'"seed": %d,' % DEFAULT_SEED)
            .replace(b', seed %d"' % seed, b', seed %d"' % DEFAULT_SEED))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class ReportCheck:
    """Pinned digest plus identical bytes across one run's repetitions."""

    def __init__(self, pins: dict, seed: int) -> None:
        self.pins = pins
        self.seed = seed
        self.first: dict[str, bytes] = {}

    def __call__(self, suite: str, call: Call) -> Call:
        if call.error is not None:
            return call
        first = self.first.setdefault(suite, call.out)
        if call.out != first:
            call.error = "report bytes differ from this run's first report"
        elif sha256(canonical(call.out, self.seed)) != self.pins["reports"][suite]:
            call.error = "report does not match the pinned digest"
        return call


def kz_argv(suite: str, w: Workload) -> list[str]:
    return ["-m", "kzbar.cli", suite, w.manifest]


def check_setup(call: Call, pins: dict) -> Call:
    if call.error is not None:
        return call
    words = call.out.decode().split()
    if len(words) != 5 or not Path(words[0]).resolve().is_relative_to(SRC):
        call.error = f"kzbar was not imported from {SRC}: {words[:1]}"
    elif words[1] != pins["manifest"] or [int(x) for x in words[2:]] != pins["built"]:
        call.error = f"set-up built {words[1:]}, pinned {pins['manifest']} {pins['built']}"
    return call


def measure(w: Workload, runner: Runner, pins: dict, seconds: float,
            tally: Tally) -> tuple[dict, dict]:
    """End-to-end run: set-up repetitions, then closed-loop cycles of the
    workload's suites until ``seconds`` have passed."""
    setup: list[Call] = []
    t_start = time.monotonic()
    while not setup or (setup[-1].error is None and (
            len(setup) < SETUP_REPS or time.monotonic() - t_start < SETUP_SECONDS)):
        setup.append(tally.add("setup", check_setup(
            runner.call(["-c", SETUP_CODE, w.manifest]), pins)))
    check = ReportCheck(pins, runner.seed)
    calls: dict[str, list[Call]] = {s: [] for s in w.suites}
    t_start = time.monotonic()
    while True:
        for suite in w.suites:
            calls[suite].append(tally.add(suite, check(
                suite, runner.call(kz_argv(suite, w)))))
        now = time.monotonic()
        if now - t_start >= seconds or now >= runner.deadline:
            break
    detail = {s: {"median_s": statistics.median(c.wall for c in cs), "n": len(cs),
                  "walls_s": [c.wall for c in cs]}
              for s, cs in [("setup", setup), *calls.items()]}
    metrics = {
        "setup_s": detail["setup"]["median_s"],
        "verdict_s": sum(detail[s]["median_s"] for s in w.suites),
        "peak_rss_mb": max(c.rss_kb for cs in calls.values() for c in cs) / 1024,
    }
    return metrics, detail


# ----------------------------------------------------------- traced run

FIELD_OPS = ("__add__", "__sub__", "__mul__", "__neg__", "inv")
SIGN_FNS = ("word", "multiply", "partial_e", "left_mul_f", "relabel")

# Metric "<span>.<key>" for each span and key, summed over a workload's
# suites; a *_share key is the ratio of the two totals in RATIOS.
LAYER_KEYS = [
    ("manifest.parse_manifest", ("s",)),
    ("manifest.build", ("s",)),
    ("trees.canonical_form", ("calls", "distinct_share", "self_s")),
    ("trees.Tree.children", ("calls",)),
    ("bar.BarComplex.enumerate_basis", ("keys",)),
    ("bar.BarComplex.differential_key", ("calls", "distinct_share", "self_s")),
    ("bar.BarComplex.homotopy_key", ("calls", "self_s")),
    ("bar.BarComplex.normalize_term", ("calls", "distinct_share", "self_s")),
    ("bar.BarComplex.bar_quotient", ("s",)),
    ("bar.BarComplex.mu_chain_map", ("s",)),
    ("linalg.echelon", ("calls", "rows_in", "rank", "self_s")),
    ("complexes.ChainComplex.__init__", ("calls", "s")),
    ("complexes.ChainComplex.homology", ("s",)),
    ("complexes.ChainMap.is_quasi_iso", ("s",)),
    ("operads.verify_operad", ("s", "checks")),
    ("operads.Operad.apply_transposition", ("calls",)),
    ("operads.Operad.gamma_basis", ("calls",)),
    ("algebras.verify_algebra", ("s", "checks")),
    ("algebras.FreeAlgebra.part",
     ("calls", "hit_share", "s", "big_words", "reps", "useful_share")),
    ("dstructures.bar_dstructure", ("s",)),
    ("dstructures.split_identity_failures", ("s",)),
    ("dstructures.build_delta_differential", ("s",)),
    ("dstructures.DStructure.project", ("calls",)),
    ("dstructures.roundtrip_algebra", ("s",)),
    ("dstructures.roundtrip_dstructure", ("s",)),
    ("dstructures.verify_morphism", ("s",)),
    ("cli.run", ("s",)),
]
RATIOS = {"distinct_share": ("distinct", "calls"), "hit_share": ("hits", "calls"),
          "useful_share": ("reps", "big_words")}


def _unit(key: str) -> str:
    if key.endswith("_share"):
        return "ratio"
    return "s" if key in ("s", "self_s") else "count"


def layer_metrics(stats: dict, walls: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from span totals summed over a workload's suites;
    ``walls`` maps each suite to its (untraced, traced) wall time."""
    def get(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0)

    def share(a: float, b: float) -> float:
        return a / b if b else 0.0

    ops = [f"fields.Scalar.{op}" for op in FIELD_OPS]
    signs = [f"signs.{fn}" for fn in SIGN_FNS]
    m: dict[str, tuple[float, str]] = {
        "fields.Scalar.ops": (sum(get(n, "calls") for n in ops), "count"),
        "fields.Scalar.self_s": (sum(get(n, "self_s") for n in ops), "s"),
        "signs.calls": (sum(get(n, "calls") for n in signs), "count"),
        "signs.self_s": (sum(get(n, "self_s") for n in signs), "s"),
    }
    for name, keys in LAYER_KEYS:
        for key in keys:
            if key in RATIOS:
                num, den = RATIOS[key]
                value = share(get(name, num), get(name, den))
            else:
                value = get(name, key)
            m[f"{name}.{key}"] = (value, _unit(key))
    m["trace.unattributed_share"] = (
        share(get("cli.run", "self_s"), get("cli.run", "s")), "ratio")
    untraced = sum(u for u, _ in walls.values())
    traced = sum(t for _, t in walls.values())
    m["trace.overhead_share"] = (share(traced - untraced, untraced), "ratio")
    return m


def trace(w: Workload, runner: Runner, pins: dict, tally: Tally) -> tuple[dict, dict]:
    """One untraced and one traced call per suite; the reports must agree."""
    check = ReportCheck(pins, runner.seed)
    stats: dict[str, dict] = {}
    walls: dict[str, tuple[float, float]] = {}
    per_suite: dict[str, dict] = {}
    for suite in w.suites:
        plain = tally.add(suite, check(suite, runner.call(kz_argv(suite, w))))
        if plain.error is not None:
            continue
        trace_file = SCRATCH / f"trace.{os.getpid()}.json"
        traced = tally.add(f"{suite} traced", check(suite, runner.call(
            [str(BENCH / "kztrace.py"), str(trace_file), suite, w.manifest])))
        if traced.error is not None:
            trace_file.unlink(missing_ok=True)
            continue
        summary = json.loads(trace_file.read_text())
        trace_file.unlink()
        walls[suite] = (plain.wall, traced.wall)
        run_s = summary["stats"]["cli.run"]["s"]
        per_suite[suite] = {
            "cli.run.s": run_s,
            "cover_share": {mod: s / run_s for mod, s in
                            sorted(summary["cover"].items(), key=lambda kv: -kv[1])
                            if s and mod != "cli"},
            "part_share": summary["stats"]["algebras.FreeAlgebra.part"]["s"] / run_s,
            "calls": {name: st["calls"]
                      for name, st in sorted(summary["stats"].items()) if st["calls"]},
            "distinct": {name: st["distinct"]
                         for name, st in sorted(summary["stats"].items()) if "distinct" in st},
        }
        for name, st in summary["stats"].items():
            acc = stats.setdefault(name, {})
            for key, val in st.items():
                acc[key] = acc.get(key, 0) + val
    return layer_metrics(stats, walls), per_suite


# ---------------------------------------------------------------- output


def machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "platform": platform.platform()}


def run_workload(w: Workload, args, pins: dict, traced: bool) -> dict:
    runner = Runner(args.seed, args.budget)
    tally = Tally()
    try:
        if traced:
            metrics, detail = trace(w, runner, pins, tally)
        else:
            raw, detail = measure(w, runner, pins, args.seconds, tally)
            metrics = {k: (v, E2E_UNITS[k]) for k, v in raw.items()}
    finally:
        runner.cleanup()
    return {"workload": w.name, "trace": int(traced), "seed": args.seed,
            "attempted": tally.attempted, "failed": tally.failed,
            "failed_share": tally.failed / tally.attempted,
            "errors": tally.errors, "suites": detail,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def print_result(res: dict) -> None:
    mode = "traced" if res["trace"] else "end to end"
    print(f"== {res['workload']} ({mode}, seed {res['seed']})")
    for name, m in res["metrics"].items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failed_share':48s} {res['failed_share']:14.6g} ratio"
          f"  ({res['failed']} of {res['attempted']} calls)")
    for suite, d in res["suites"].items():
        print(f"  suite {suite}: " + json.dumps(d, sort_keys=True))
    for err in res["errors"]:
        print(f"  FAILED {err}")


def write_pins(budget: float) -> None:
    """Pin every workload's set-up output and report digests at the
    default seed; run it only on a commit whose reports are trusted."""
    runner = Runner(DEFAULT_SEED, budget)
    pins = {}
    try:
        for w in WORKLOADS.values():
            setup = runner.call(["-c", SETUP_CODE, w.manifest])
            calls = {suite: runner.call(kz_argv(suite, w)) for suite in w.suites}
            for what, c in [("setup", setup), *calls.items()]:
                if c.error is not None:
                    raise SystemExit(f"{w.name} {what}: {c.error}")
            words = setup.out.decode().split()
            pins[w.name] = {"manifest": words[1],
                            "built": [int(x) for x in words[2:]],
                            "reports": {s: sha256(c.out) for s, c in calls.items()}}
    finally:
        runner.cleanup()
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="forwarded to kz as KZ_SEED")
    ap.add_argument("--seconds", type=float, default=45.0,
                    help="length of the closed-loop measurement")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--budget", type=float, default=30.0,
                    help="seconds one kz call may take before it is killed")
    ap.add_argument("--record", type=Path,
                    help="with --workload all: write the results and machine "
                         "info to this JSON file")
    ap.add_argument("--write-pins", action="store_true",
                    help="rewrite perfbench/pins.json from this commit and exit")
    args = ap.parse_args(argv)
    # Exit through the cleanup that kills and reaps a running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "kzbar" / "cli.py").is_file():
        print(f"no kzbar sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_pins:
        write_pins(args.budget)
        return 0
    all_pins = json.loads(PINS.read_text())

    if args.workload != "all":
        w = WORKLOADS[args.workload]
        res = run_workload(w, args, all_pins[w.name], bool(args.trace))
        print_result(res)
        print(json.dumps({"correct": res["failed"] == 0,
                          "attempted": res["attempted"], "failed": res["failed"],
                          "metrics": res["metrics"]}))
        return 0

    results = []
    for w in WORKLOADS.values():
        for traced in (False, True)[:1 + args.trace]:
            results.append(run_workload(w, args, all_pins[w.name], traced))
            print_result(results[-1])
    if args.record:
        args.record.write_text(json.dumps(
            {"machine": machine(), "results": results}, indent=2, sort_keys=True) + "\n")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {f"{r['workload']}.{k}": v for r in results
                    for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
