"""Command line front end: one manifest in, one report out.

``kz COMMAND MANIFEST`` reads a manifest (a file path, or the name of a
packaged one such as ``uass_dual_numbers``), runs the named battery of
checks, and prints a report.  Commands:

    validate    operad and algebra axioms, plus seeded composition probes
    trees       tree counts up to a vertex bound, optionally by class
    bar         differential, contraction and evaluation identities
    homology    homology tables for the carriers and the bar window
    dstruct     splitting identities for every declared structure
    roundtrip   windowed certificates that the constructions invert

The JSON report is canonical: keys sorted, no wall-clock data, so the
same inputs give identical bytes on every run.  Elapsed time goes to
stderr.  ``KZ_SEED`` sets the randomness of sampled probes (default
fixed).  Exit status is 0 exactly when every check passes, 1 on a
failed check, 2 when the manifest cannot be read at all, and 3 on an
internal error: one of kzbar's own errors (a ``kzbar.KzbarError``)
escaped a suite, the run ran out of memory, or any other exception
escaped, which is a fault in kzbar and not a verdict on the manifest
either.  Exits 2 and 3 print one ``manifest: message`` line to stderr
and no traceback; for an exception outside kzbar's own errors the
message is ``internal error in SUITE: ExcType: message``.  A window whose bar differential
composes past the operad cap is one of these.  A report that ``--out``
cannot write (a missing directory, no permission) exits 2 with one
``PATH: cannot write report: message`` line.  ``dstruct`` and
``roundtrip`` read the manifest's D-structures, each built on first
read, so one that cannot be built exits 2; ``bar`` and ``homology``
read only the bar complex and stop with the cap in the message (exit
3), whether or not the manifest declares a D-structure.

A process imports only the layers its suite runs, when the suite
starts: ``validate`` the operads and algebras that every build needs,
``trees`` the tree layer, ``bar`` and ``homology`` the bar complex with
its trees and sign words, and ``dstruct`` and ``roundtrip`` the
D-structures on top.  Without a bytecode cache every imported module
is compiled, so this keeps start-up to the code that runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from random import Random
from typing import TYPE_CHECKING, NamedTuple

from kzbar import KzbarError
from kzbar.algebras import Algebra, verify_algebra
from kzbar.complexes import ChainComplex, ComplexError
from kzbar.linalg import raw_iaxpy
from kzbar.manifest import (
    Build,
    Manifest,
    ManifestError,
    build,
    load_builtin,
    manifest_digest,
    parse_manifest,
)
from kzbar.operads import CapExceeded, verify_operad

if TYPE_CHECKING:
    from kzbar.bar import BarComplex
    from kzbar.dstructures import DStructure

DEFAULT_SEED = 271828
DEFAULT_VERIFY_CAP = 3
TIMING_NOTE = "wall time goes to stderr so reports stay byte-stable"
_PROBES = 20
_PART_BUDGET = 200_000

COMMANDS = ("validate", "trees", "bar", "homology", "dstruct", "roundtrip")


class Check(NamedTuple):
    name: str
    outcome: str  # "pass" or "fail"
    witness: str | None = None
    note: str = ""


class Report:
    """One suite's checks and tables, filled in as the suite runs."""

    __slots__ = ("command", "digest", "seed", "args", "checks", "tables")

    def __init__(self, command: str, digest: str, seed: int) -> None:
        self.command = command
        self.digest = digest
        self.seed = seed
        self.args: dict = {}
        self.checks: list[Check] = []
        self.tables: dict = {}

    @property
    def ok(self) -> bool:
        return all(c.outcome == "pass" for c in self.checks)

    def record(self, name: str, ok: bool, witness: str | None = None,
               note: str = "") -> None:
        self.checks.append(Check(name, "pass" if ok else "fail", witness, note))


def _vec_str(v: dict) -> str:
    if not v:
        return "0"
    terms = sorted(v.items(), key=lambda kv: repr(kv[0]))
    return " + ".join(f"({c})*{k!r}" for k, c in terms)


def _homology_rows(comp: ChainComplex, degrees=None) -> list[dict]:
    rows = []
    for deg, summ in sorted(comp.homology(degrees).items()):
        rows.append({"degree": deg, "dim": summ.dim,
                     "boundary_rank": summ.boundary_rank})
    return rows


def _verdict_rows(verdicts: dict) -> list[dict]:
    rows = []
    for deg, v in sorted(verdicts.items()):
        rows.append({"degree": deg, "source_dim": v.source_dim,
                     "target_dim": v.target_dim, "induced_rank": v.induced_rank,
                     "isomorphism": v.isomorphism})
    return rows


# ------------------------------------------------------------- validate


def _sample_probe(alg: Algebra, rng: Random) -> str | None:
    """One seeded associativity probe at the full cap: compose two basis
    operations, evaluate both ways, compare.  Stock operads live in
    degree zero, so no sign enters."""
    op = alg.operad
    sigs = sorted(op.signatures(), key=repr)
    cap = max(len(s[0]) for s in sigs)
    outer = [s for s in sigs if len(s[0]) >= 1]
    for _ in range(40):
        c_sig = rng.choice(outer)
        n = len(c_sig[0])
        j = rng.randrange(1, n + 1)
        inner_ok = [s for s in sigs
                    if s[1] == c_sig[0][j - 1] and n - 1 + len(s[0]) <= cap]
        if not inner_ok:
            continue
        w_sig = rng.choice(inner_ok)
        comp_c = op.component(c_sig)
        comp_w = op.component(w_sig)
        if comp_c is None or comp_w is None:
            continue
        y = op.basis_element(c_sig, rng.choice(sorted(comp_c.degrees, key=repr)))
        w = op.basis_element(w_sig, rng.choice(sorted(comp_w.degrees, key=repr)))
        glued = op.gamma_j(j, w, y)
        xs = []
        for srt in glued.sig[0]:
            names = sorted(alg.carrier[srt].degrees, key=repr)
            xs.append(alg.basis_element(srt, rng.choice(names)))
        lhs = alg.theta_eval(xs, glued)
        m = len(w_sig[0])
        inner = alg.theta_eval(xs[j - 1:j - 1 + m], w)
        rhs = alg.theta_eval(xs[:j - 1] + [inner] + xs[j - 1 + m:], y)
        if lhs.vec != rhs.vec:
            return (f"theta(gamma_{j}({w.sig}, {y.sig})) gave "
                    f"{_vec_str(lhs.vec)}, nesting gave {_vec_str(rhs.vec)}")
        return None
    return None


def _run_validate(m: Manifest, rep: Report, verify_cap: int, seed: int) -> None:
    clipped = build(m, cap=verify_cap)
    eff = min(m.cap, verify_cap)
    for name, op in clipped.operads.items():
        r = verify_operad(op)
        rep.record(f"operad {name}: composition and symmetry axioms",
                   r.ok, witness="; ".join(r.failures[:3]) or None,
                   note=f"exhaustive at cap {eff}, {r.checks_run} checks")
    for name, alg in clipped.algebras.items():
        r = verify_algebra(alg)
        rep.record(f"algebra {name}: action axioms", r.ok,
                   witness="; ".join(r.failures[:3]) or None,
                   note=f"exhaustive at cap {eff}, {r.checks_run} checks")
    if m.algebras:
        full = build(m)
        rng = Random(seed)
        for name, alg in full.algebras.items():
            bad = None
            for _ in range(_PROBES):
                bad = bad or _sample_probe(alg, rng)
            rep.record(f"algebra {name}: sampled composition probes at cap "
                       f"{m.cap}", bad is None, witness=bad,
                       note=f"{_PROBES} probes, seed {seed}")


# ---------------------------------------------------------------- trees


def _run_trees(m: Manifest, rep: Report, n: int, classes: bool) -> None:
    """Planar trees are counted as shapes times sort assignments, so no
    sorted planar tree is built."""
    from kzbar.trees import TreeError, enumerate_trees

    srts = m.sorts if m.sorts != ("*",) else None
    rows: list[dict] = []
    try:
        if n < 1:
            raise TreeError([f"vertex count {n} must be positive"])
        for k in range(1, n + 1):
            row = {"vertices": k,
                   "planar": len(enumerate_trees(k)) * len(m.sorts) ** k}
            if classes:
                row["classes"] = len(enumerate_trees(k, True, srts))
            rows.append(row)
        rep.record(f"tree enumeration up to {n} vertices", True)
    except TreeError as e:
        rep.record(f"tree enumeration up to {n} vertices", False, witness=str(e))
    rep.tables["trees"] = rows


# ------------------------------------------------------------------ bar


def _window_range(m: Manifest):
    w = m.window
    if w.deg_lo is None:
        return None
    return list(range(w.deg_lo, w.deg_hi + 1))


def _run_bar(m: Manifest, built: Build, rep: Report) -> None:
    n_max = m.window.n_max
    for name, alg in built.algebras.items():
        B = alg.bar
        keys = B.enumerate_basis(n_max)
        d2_bad, un_bad = B.certificate_faults(keys)
        rep.record(
            f"bar {name}: differential squares to zero",
            d2_bad is None,
            witness=None if d2_bad is None else
            f"d.d({d2_bad[0]!r}) = {_vec_str(d2_bad[1])}",
            note=f"{len(keys)} basis elements up to {n_max} vertices")
        rep.record(
            f"bar {name}: graft contraction gives the identity",
            un_bad is None,
            witness=None if un_bad is None else
            f"(dh + hd - 1)({un_bad[0]!r}) = {_vec_str(un_bad[1])}")

        wr = _window_range(m)
        try:
            quotient = B.bar_quotient(n_max, m.window.deg_lo, m.window.deg_hi)
        except ComplexError as e:
            rep.record(f"bar {name}: window differential squares to zero",
                       False, witness=str(e))
            continue
        stable = [d for d in B.stable_degrees(n_max)
                  if wr is None or d in wr]
        try:
            mu = B.mu_chain_map(quotient)
            rep.record(f"bar {name}: evaluation is a chain map", True,
                       note=f"{len(quotient.degrees)} window elements")
            verdicts = mu.is_quasi_iso(stable)
            iso_ok = all(v.isomorphism for v in verdicts.values())
            broken = sorted(d for d, v in verdicts.items() if not v.isomorphism)
            rep.record(
                f"bar {name}: evaluation induces homology isomorphisms "
                f"on stable degrees",
                iso_ok,
                witness=None if iso_ok else f"not an isomorphism in {broken}",
                note="" if stable else
                "no stable degrees at this window; the verdict is vacuous")
            rep.tables.setdefault("bar", {})[name] = {
                "stable_degrees": stable,
                "homology": _homology_rows(quotient, stable or None),
                "evaluation": _verdict_rows(verdicts),
            }
        except ComplexError as e:
            rep.record(f"bar {name}: evaluation is a chain map", False,
                       witness=str(e))


# ------------------------------------------------------------- homology


def _run_homology(m: Manifest, built: Build, rep: Report) -> None:
    n_max = m.window.n_max
    for name, alg in built.algebras.items():
        entry: dict = {"carrier": {}}
        for srt in sorted(alg.carrier):
            entry["carrier"][srt] = _homology_rows(alg.carrier[srt])
        rep.tables.setdefault("homology", {})[name] = entry
        check = f"homology {name}: window differential squares to zero"
        try:
            quotient = alg.bar.bar_quotient(n_max, m.window.deg_lo,
                                            m.window.deg_hi)
        except ComplexError as e:
            rep.record(check, False, witness=str(e))
            continue
        entry["bar_window"] = _homology_rows(quotient, _window_range(m))
        rep.record(check, True, note=f"{len(quotient.degrees)} window elements")


# -------------------------------------------------------------- dstruct


def _bar_nilpotency(B: BarComplex, ds: DStructure) -> tuple[bool, str | None]:
    """Square the induced differential on each arity-one generator and
    fold the words back onto trees; grafting is faithful on classes, so
    a zero fold certifies a zero square without touching coinvariants."""
    from kzbar.dstructures import join_word

    p = ds.field.p
    joins: dict = {}  # the squares of the generators share many words
    for srt in sorted(ds.carrier):
        for x in sorted(ds.carrier[srt].degrees, key=repr):
            folded: dict = {}
            for big, c in ds.delta_vec(ds.delta_vec(ds.unit_word(srt, x))).items():
                joined = joins.get(big)
                if joined is None:
                    joined = joins[big] = join_word(B, big[1], big[0], big[2])
                raw_iaxpy(folded, c, joined, p)
            if folded:
                return False, (f"Delta.Delta at {x!r} folds to "
                               f"{_vec_str(folded)}")
    return True, None


def _carrier_size(ds: DStructure) -> int:
    return sum(len(c.degrees) for c in ds.carrier.values())


def _parts_fit(carrier_size: int, n_max: int) -> bool:
    """Whether the coinvariant parts of the window stay under the budget."""
    return carrier_size ** max(n_max, 1) <= _PART_BUDGET


def _run_dstruct(m: Manifest, built: Build, rep: Report) -> None:
    from kzbar.dstructures import (
        DStructureError,
        build_delta_differential,
        identity_morphism,
        split_identity_failures,
        verify_morphism,
    )

    n_max = m.window.n_max
    by_name = {d.name: d for d in m.dstructures}
    for name, ds in built.dstructures.items():
        sec = by_name[name]
        carrier_size = _carrier_size(ds)

        note = ""
        certified = False
        if _parts_fit(carrier_size, n_max):
            try:
                window = build_delta_differential(ds, n_max)
                dim = sum(len(c.degrees) for c in window.carrier.values())
                note = f"complete window complex on {dim} words"
                certified = True
            except (CapExceeded, DStructureError) as e:
                note = f"window does not close: {e}"
        if certified:
            rep.record(f"dstructure {name}: induced differential squares "
                       f"to zero", True, note=note)
        else:
            ok, wit = _bar_nilpotency(built.algebras[sec.algebra].bar, ds)
            rep.record(f"dstructure {name}: induced differential squares "
                       f"to zero", ok, witness=wit,
                       note=note or "folded through the tree basis")

        bad = split_identity_failures(ds)
        rep.record(
            f"dstructure {name}: splitting matches the commutator with "
            f"the inclusion",
            not bad,
            witness=None if not bad else
            f"at {bad[0][0]!r}: got {_vec_str(bad[0][1])}, "
            f"want {_vec_str(bad[0][2])}",
            note=f"{carrier_size} generators")

        mr = verify_morphism(identity_morphism(ds), window=1)
        rep.record(f"dstructure {name}: identity is a morphism", mr.ok,
                   witness=None if mr.first_divergence is None else
                   f"diverges at {mr.first_divergence[0]!r}",
                   note=f"{mr.checked} elements compared")


# ------------------------------------------------------------ roundtrip


def _run_roundtrip(m: Manifest, built: Build, rep: Report) -> None:
    from kzbar.dstructures import (
        DStructureError,
        roundtrip_algebra,
        roundtrip_dstructure,
    )

    n_max = m.window.n_max
    # read every section first, so one that cannot be built stops the
    # suite before the algebra roundtrips run
    dstructures = dict(built.dstructures)
    for name, alg in built.algebras.items():
        r = roundtrip_algebra(alg, n_max)
        rep.record(f"roundtrip {name}: split words match the tree basis",
                   r.basis_matched, note=f"dimension {r.dimension}")
        rep.record(
            f"roundtrip {name}: differentials agree entry for entry",
            r.matrices_equal,
            witness=None if r.first_divergence is None else
            repr(r.first_divergence))
        ev_ok = all(v.isomorphism for v in r.evaluation.values())
        rep.record(
            f"roundtrip {name}: evaluation is a quasi-isomorphism on "
            f"stable degrees", ev_ok, note=r.note)
        rep.tables.setdefault("roundtrip", {})[name] = {
            "dimension": r.dimension,
            "stable_degrees": r.stable_degrees,
            "evaluation": _verdict_rows(r.evaluation),
        }
    for name, ds in dstructures.items():
        if not _parts_fit(_carrier_size(ds), n_max):
            rep.tables.setdefault("roundtrip", {})[name] = {
                "note": "skipped: coinvariant parts too large at this window"}
            continue
        try:
            rd = roundtrip_dstructure(ds, n_max, bar_cap=n_max + 1)
        except (CapExceeded, DStructureError) as e:
            rep.tables.setdefault("roundtrip", {})[name] = {
                "note": f"window does not close: {e}"}
            continue
        rep.record(f"roundtrip {name}: counit intertwines the "
                   f"differentials", rd.counit.ok,
                   note=f"{rd.counit.checked} elements compared")
        if rd.equivalence is not None:
            rep.record(f"roundtrip {name}: counit is an equivalence",
                       rd.equivalence.equivalence, note=rd.equivalence.note)
        ev_ok = all(v.isomorphism for v in rd.evaluation.values())
        rep.record(f"roundtrip {name}: evaluation is a quasi-isomorphism "
                   f"on stable degrees", ev_ok,
                   note=rd.conclusion)
        rep.tables.setdefault("roundtrip", {})[name] = {
            "stable_degrees": rd.stable_degrees,
            "evaluation": _verdict_rows(rd.evaluation),
        }


# ------------------------------------------------------------- plumbing


def run(command: str, m: Manifest, *, n: int | None = None,
        classes: bool = False, verify_cap: int = DEFAULT_VERIFY_CAP,
        seed: int = DEFAULT_SEED) -> Report:
    """Run one command against a parsed manifest and return its report."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    rep = Report(command, manifest_digest(m), seed)
    if command == "validate":
        rep.args = {"verify_cap": verify_cap}
        _run_validate(m, rep, verify_cap, seed)
    elif command == "trees":
        if n is None:
            raise ValueError("trees needs a vertex bound")
        rep.args = {"n": n, "classes": classes}
        _run_trees(m, rep, n, classes)
    else:
        built = build(m)
        if command == "bar":
            _run_bar(m, built, rep)
        elif command == "homology":
            _run_homology(m, built, rep)
        elif command == "dstruct":
            _run_dstruct(m, built, rep)
        else:
            _run_roundtrip(m, built, rep)
    return rep


def report_dict(rep: Report) -> dict:
    return {
        "command": rep.command,
        "manifest": rep.digest,
        "args": rep.args,
        "seed": rep.seed,
        "ok": rep.ok,
        "timing": TIMING_NOTE,
        "checks": [
            {"name": c.name, "outcome": c.outcome, "witness": c.witness,
             "note": c.note}
            for c in rep.checks
        ],
        "tables": rep.tables,
    }


def to_json(rep: Report) -> str:
    return json.dumps(report_dict(rep), sort_keys=True, indent=2) + "\n"


def to_text(rep: Report) -> str:
    lines = [f"command: {rep.command}", f"manifest: {rep.digest}",
             f"seed: {rep.seed}"]
    for c in rep.checks:
        tag = "PASS" if c.outcome == "pass" else "FAIL"
        lines.append(f"{tag} {c.name}" + (f"  [{c.note}]" if c.note else ""))
        if c.witness:
            lines.append(f"     witness: {c.witness}")
    if rep.tables:
        lines.append("tables:")
        blob = json.dumps(rep.tables, sort_keys=True, indent=2)
        lines.extend("  " + ln for ln in blob.splitlines())
    lines.append("ok" if rep.ok else "FAILED")
    return "\n".join(lines) + "\n"


def _load_text(arg: str) -> str:
    p = Path(arg)
    if p.exists():
        return p.read_text()
    return load_builtin(arg)


def _env_int(var: str, default: int) -> int:
    raw = os.environ.get(var, "")
    if not raw:
        return default
    try:
        return int(raw, 10)
    except ValueError:
        raise ManifestError(f"{var} must be an integer, not {raw!r}") from None


def _positive_int(raw: str) -> int:
    """argparse type for a bound that must be at least 1."""
    try:
        value = int(raw, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("manifest", help="manifest file or builtin name")
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--out", help="write the report here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="kz", description="manifest-driven checks for the tree calculus")
    sub = parser.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("validate", parents=[common],
                        help="operad and algebra axioms")
    sp.add_argument("--verify-cap", type=_positive_int, default=DEFAULT_VERIFY_CAP,
                    help="arity cap for the exhaustive pass")
    tp = sub.add_parser("trees", parents=[common], help="tree counts")
    tp.add_argument("n", type=int, help="largest vertex count")
    tp.add_argument("--classes", action="store_true",
                    help="also count trees up to relabeling")
    for name in ("bar", "homology", "dstruct", "roundtrip"):
        sub.add_parser(name, parents=[common])

    args = parser.parse_args(argv)
    try:
        seed = _env_int("KZ_SEED", DEFAULT_SEED)
        text = _load_text(args.manifest)
        m = parse_manifest(text)
        t0 = time.monotonic()
        rep = run(args.command, m,
                  n=getattr(args, "n", None),
                  classes=getattr(args, "classes", False),
                  verify_cap=getattr(args, "verify_cap", DEFAULT_VERIFY_CAP),
                  seed=seed)
        elapsed = int((time.monotonic() - t0) * 1000)
    except (ManifestError, OSError) as e:
        print(f"{args.manifest}: {e}", file=sys.stderr)
        return 2
    except KzbarError as e:
        print(f"{args.manifest}: {e}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"{args.manifest}: out of memory in {args.command}; "
              f"try a smaller window", file=sys.stderr)
        return 3
    except Exception as e:  # a fault in kzbar itself, not a failed check
        print(f"{args.manifest}: internal error in {args.command}: "
              f"{type(e).__name__}: {e}", file=sys.stderr)
        return 3
    print(f"elapsed: {elapsed} ms", file=sys.stderr)
    out = to_json(rep) if args.format == "json" else to_text(rep)
    if args.out:
        try:
            Path(args.out).write_text(out)
        except OSError as e:
            print(f"{args.out}: cannot write report: {e.strerror or e}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(out)
    return 0 if rep.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())


__all__ = [
    "COMMANDS",
    "Check",
    "Report",
    "main",
    "report_dict",
    "run",
    "to_json",
    "to_text",
]
