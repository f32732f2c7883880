"""Run one ``kz`` suite with the public functions of every kzbar layer
wrapped in timing spans and counters, and write the totals as JSON.

    PYTHONPATH=src python3 perfbench/kztrace.py TRACE_JSON SUITE MANIFEST

The report goes to stdout byte for byte as ``kz SUITE MANIFEST`` prints
it; the benchmark compares the two.  The wrappers live in this file, so
nothing under ``src/`` changes: each wrapped name is replaced in every
``kzbar`` module namespace that holds it (``canonical_form`` also lives
in ``kzbar.bar``, ``echelon`` in ``kzbar.complexes``), methods are
replaced on their class, and everything is put back on exit.

A span records its calls, its total time and its self time (its time
minus the time its child spans cover).  A function that recurses is
counted once per outermost call.  ``cover`` is, per module, the time
covered by spans of that module that do not sit inside another span of
the same module.
"""

from __future__ import annotations

import importlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Stat:
    __slots__ = ("calls", "total", "self_s", "depth", "seen", "extra", "kept")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.seen: set | None = None
        self.extra: dict[str, int] = {}
        self.kept: dict[int, object] = {}

    def as_dict(self) -> dict:
        out = {"calls": self.calls, "s": self.total, "self_s": self.self_s}
        if self.seen is not None:
            out["distinct"] = len(self.seen)
        out.update(self.extra)
        return out


# ----------------------------------------------------- per-function hooks
# ``before`` may rewrite the arguments; ``after`` sees them and the result.


def _echelon_rows(st: Stat, args: tuple, kwargs: dict):
    rows = list(args[0])
    st.extra["rows_in"] += sum(1 for v in rows if v)
    return (rows,) + args[1:], kwargs


def _echelon_rank(st: Stat, args, kwargs, res) -> None:
    st.extra["rank"] += res.rank


def _report_checks(st: Stat, args, kwargs, res) -> None:
    st.extra["checks"] += res.checks_run


def _basis_keys(st: Stat, args, kwargs, res) -> None:
    st.extra["keys"] += len(res)


def _free_part(st: Stat, args, kwargs, res) -> None:
    # A part object seen before came from the algebra's memo; a new one
    # was built from the words of the pre-quotient space.  Keeping each
    # part alive keeps its id from being reused.
    if id(res) in st.kept:
        st.extra["hits"] += 1
        return
    st.kept[id(res)] = res
    st.extra["big_words"] += len(res.big_degrees)
    st.extra["reps"] += len(res.complex.degrees)


# (module, qualified name, options).  ``distinct`` keeps the set of
# argument tuples seen (the receiver of a method left out), the ceiling a
# memo could reach.
SPANS = [
    ("manifest", "parse_manifest", {}),
    ("manifest", "build", {}),
    ("fields", "Scalar.__add__", {}),
    ("fields", "Scalar.__sub__", {}),
    ("fields", "Scalar.__mul__", {}),
    ("fields", "Scalar.__neg__", {}),
    ("fields", "Scalar.inv", {}),
    ("signs", "word", {}),
    ("signs", "multiply", {}),
    ("signs", "partial_e", {}),
    ("signs", "left_mul_f", {}),
    ("signs", "relabel", {}),
    ("trees", "canonical_form", {"distinct": True}),
    ("bar", "BarComplex.enumerate_basis",
     {"after": _basis_keys, "extra": ("keys",)}),
    ("bar", "BarComplex.differential_key", {"distinct": True}),
    ("bar", "BarComplex.homotopy_key", {}),
    ("bar", "BarComplex.normalize_term", {"distinct": True}),
    ("bar", "BarComplex.bar_quotient", {}),
    ("bar", "BarComplex.mu_chain_map", {}),
    ("linalg", "echelon", {"before": _echelon_rows, "after": _echelon_rank,
                           "extra": ("rows_in", "rank")}),
    ("complexes", "ChainComplex.__init__", {}),
    ("complexes", "ChainComplex.homology", {}),
    ("complexes", "ChainMap.is_quasi_iso", {}),
    ("operads", "verify_operad", {"after": _report_checks, "extra": ("checks",)}),
    ("algebras", "verify_algebra", {"after": _report_checks, "extra": ("checks",)}),
    ("algebras", "FreeAlgebra.part",
     {"after": _free_part, "extra": ("hits", "big_words", "reps")}),
    ("dstructures", "bar_dstructure", {}),
    ("dstructures", "split_identity_failures", {}),
    ("dstructures", "build_delta_differential", {}),
    ("dstructures", "roundtrip_algebra", {}),
    ("dstructures", "roundtrip_dstructure", {}),
    ("dstructures", "verify_morphism", {}),
    ("cli", "run", {}),
]

# Counted but not timed: cheap calls made very often.
COUNTS = [
    ("trees", "Tree.children"),
    ("operads", "Operad.apply_transposition"),
    ("operads", "Operad.gamma_basis"),
    ("dstructures", "DStructure.project"),
]


class Tracer:
    """Spans and counters installed by replacing kzbar functions."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.cover: dict[str, float] = {}
        self._open: list[float] = []  # child time of each open span
        self._module_depth: dict[str, list[int]] = {}
        self._patches: list[tuple[object, str, object, object]] = []

    def _span(self, name: str, module: str, fn, distinct=False,
              before=None, after=None, extra=()):
        first_arg = 1 if name.count(".") > 1 else 0  # skip a method's receiver
        st = self.stats[name] = Stat()
        st.extra = dict.fromkeys(extra, 0)
        if distinct:
            st.seen = set()
        seen = st.seen
        open_ = self._open
        cover = self.cover
        cover.setdefault(module, 0.0)
        depth_in_module = self._module_depth.setdefault(module, [0])

        def wrapper(*args, **kwargs):
            if st.depth:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(st, args, kwargs)
            if seen is not None:
                seen.add((args[first_arg:], tuple(sorted(kwargs.items()))))
            st.depth = 1
            st.calls += 1
            depth_in_module[0] += 1
            open_.append(0.0)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = open_.pop()
                st.depth = 0
                depth_in_module[0] -= 1
                st.total += dt
                st.self_s += dt - child
                if open_:
                    open_[-1] += dt
                if not depth_in_module[0]:
                    cover[module] += dt
            if after is not None:
                after(st, args, kwargs, res)
            return res

        return wrapper

    def _counter(self, name: str, fn):
        st = self.stats[name] = Stat()

        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, module: str, qualname: str, make) -> None:
        mod = importlib.import_module(f"kzbar.{module}")
        name = f"{module}.{qualname}"
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[attr]
            new = make(name, orig)
            setattr(cls, attr, new)
            self._patches.append((cls, attr, orig, new))
            return
        orig = getattr(mod, qualname)
        new = make(name, orig)
        for m in _kzbar_modules():
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, new)
                    self._patches.append((m, key, orig, new))

    def install(self) -> None:
        for module, qualname, opts in SPANS:
            self._replace(module, qualname,
                          lambda name, fn, module=module, opts=opts:
                          self._span(name, module, fn, **opts))
        for module, qualname in COUNTS:
            self._replace(module, qualname, self._counter)
        originals = {id(orig) for _, _, orig, _ in self._patches}
        for m in _kzbar_modules():
            for key, val in vars(m).items():
                if id(val) in originals:
                    raise RuntimeError(f"{m.__name__}.{key} escaped the trace")

    def uninstall(self) -> None:
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)
        wrappers = {id(new) for _, _, _, new in self._patches}
        for m in _kzbar_modules():
            for key, val in vars(m).items():
                if id(val) in wrappers:
                    raise RuntimeError(f"{m.__name__}.{key} was not restored")
                if isinstance(val, type):
                    for attr, v in vars(val).items():
                        if id(v) in wrappers:
                            raise RuntimeError(
                                f"{m.__name__}.{key}.{attr} was not restored")
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def summary(self) -> dict:
        return {"stats": {k: st.as_dict() for k, st in self.stats.items()},
                "cover": self.cover}


def _kzbar_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "kzbar" or name.startswith("kzbar.")]


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    out_path, kz_argv = Path(argv[0]), argv[1:]
    cli = importlib.import_module("kzbar.cli")
    tracer = Tracer()
    with tracer.installed():
        code = cli.main(kz_argv)
    sys.stdout.flush()
    out_path.write_text(json.dumps(tracer.summary(), sort_keys=True))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
